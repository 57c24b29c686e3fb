"""MHH without the §4.3 frequent-moving extension: a test oracle.

``stop_event_migration`` is never sent, so when a client moves on before
its event migration finishes, the migration completes at the abandoned
destination and the next handoff re-ships the whole, ever-growing backlog
— the shuttling the distributed PQlist exists to avoid
(``tests/test_paper_shapes.py`` measures it). Pass the class itself as
``PubSubSystem(protocol=MHHNoPQList)``: a class is a factory.
"""

from repro.mobility.mhh import MHHProtocol


class MHHNoPQList(MHHProtocol):
    name = "mhh-nopqlist"

    def _request_stop(self, broker, client, im):
        """Never ask the old anchor to stop streaming."""
