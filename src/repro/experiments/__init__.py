"""Experiment harness: configuration, runner, and figure sweep drivers.

Each figure of the paper's evaluation (Figures 5(a,b) and 6(a,b)) has a
sweep driver in :mod:`repro.experiments.figures` that runs the three
protocols over the figure's parameter axis and returns the rows/series the
paper plots. ``python -m repro.experiments.cli fig5a`` prints them. This
package imports only the configuration and the runner; a single run never
loads the sweeps or :mod:`repro.experiments.report`.
"""

from repro.experiments.config import ExperimentConfig, SCALES
from repro.experiments.runner import run_experiment

__all__ = [
    "ExperimentConfig",
    "SCALES",
    "run_experiment",
]
