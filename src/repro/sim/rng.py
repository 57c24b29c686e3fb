"""Named, independently seeded random streams.

Every stochastic component of an experiment (topology tie-breaks, workload
subscriptions, each client's mobility process, publication jitter, ...) draws
from its own named stream derived from the experiment seed via
``numpy.random.SeedSequence``-style key hashing. Consequences:

* Runs are exactly reproducible given the experiment seed.
* Changing how many draws one component makes does not perturb any other
  component (no accidental coupling through a shared global generator) —
  essential when comparing protocols under *identical* workloads: the three
  protocol runs of a figure point share the same workload streams.

A :class:`Stream` is numpy's default generator written out in Python, so a
run never imports numpy, yet every draw equals numpy's, value for value
(``tests/test_stream_oracle.py``): every fixed-seed result stands.

The hottest scalar streams are read through :func:`uniforms`, which serves
the same values from blocks. A stream read that way has **exactly one
consumer**: the block runs ahead of what has been handed out, so a second
reader of the same stream would see draws from past the buffer, not the
next value of the sequence, and would shift every block drawn after it.
"""

from __future__ import annotations

import hashlib
import math
import struct
import zlib
from base64 import b85decode
from bisect import bisect_right
from functools import cache
from itertools import accumulate, chain, repeat
from operator import truediv
from typing import Iterable, Iterator, Optional, Sequence

__all__ = ["RandomStreams", "Stream", "uniforms", "UNIFORM_BLOCK"]

#: uniforms drawn per refill of a :func:`uniforms` iterator
UNIFORM_BLOCK = 1024

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier


def _key_to_entropy(key: str) -> int:
    """Stable 128-bit entropy from a stream name (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def _hash_chain(h: int, mult: int, steps: int) -> list[tuple[int, int]]:
    """``SeedSequence``'s hash multipliers, one ``(h, h * mult)`` pair a
    step: the ``h`` a word is xored with and the one it is multiplied by.
    They depend on the number of steps alone, never on the entropy."""
    out = []
    for _ in range(steps):
        out.append((h, h := h * mult & _M32))
    return out


@cache
def _mix_chain(n: int) -> tuple[tuple, tuple]:
    """The mixing steps of ``n >= 4`` entropy words, with their hash
    multipliers: four ``(i, hx, hm)`` that fill the pool, then one
    ``(src, dst, hx, hm)`` per word ``src`` and pool word ``dst != src``.
    Made once per word count: every stream of a run has the same."""
    chain = iter(_hash_chain(0x43B0D7E5, 0x931E8875, 4 * n))
    init = tuple((i, *hs) for i, hs in zip(range(4), chain))
    mix = tuple((src, dst, *next(chain))
                for src in range(n) for dst in range(4) if dst != src)
    return init, mix


#: the hash multipliers of the eight 32-bit words ``generate_state`` draws
_STATE_CHAIN = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)


class Stream:
    """What ``numpy.random.default_rng(SeedSequence(entropy))`` draws, for
    ``entropy`` a sequence of non-negative ints. Its PCG64 step (128-bit
    LCG, XSL-RR output) is written out in each draw: one frame a draw."""

    __slots__ = ("_s", "_inc", "_u32")

    def __init__(self, entropy: Iterable[int]) -> None:
        words: list[int] = []
        for n in entropy:
            if n < 0:
                raise ValueError(f"entropy must be non-negative, got {n}")
            words.append(n & _M32)
            while n := n >> 32:
                words.append(n & _M32)
        # SeedSequence mixes the words into a pool of four (``buf[:4]``;
        # the words past the fourth follow it) ...
        n = max(4, len(words))
        init, mix = _mix_chain(n)
        buf = words[:4] + [0] * (4 - len(words)) + words[4:]
        for i, hx, hm in init:
            x = (buf[i] ^ hx) * hm & _M32
            buf[i] = x ^ x >> 16
        for src, dst, hx, hm in mix:
            x = (buf[src] ^ hx) * hm & _M32
            x = 0xCA01F9DD * buf[dst] - 0x4973F715 * (x ^ x >> 16) & _M32
            buf[dst] = x ^ x >> 16
        # ... and draws the four 64-bit words PCG64 is seeded with
        out = 0
        for i, (hx, hm) in enumerate(_STATE_CHAIN):
            x = (buf[i & 3] ^ hx) * hm & _M32
            out |= (x ^ x >> 16) << 32 * i
        seed = (out & _M64) << 64 | out >> 64 & _M64
        inc = ((out >> 128 & _M64) << 64 | out >> 192) << 1 | 1
        self._inc = inc = inc & _M128
        self._s = ((inc + seed) * _MULT + inc) & _M128
        #: the upper half of the word a 32-bit draw last split, or None
        self._u32: Optional[int] = None

    @property
    def position(self) -> tuple[int, Optional[int]]:
        """Where the stream stands: its LCG state and any buffered half."""
        return self._s, self._u32

    def random(self, size: Optional[int] = None):
        """A float on ``[0, 1)``, ``(next64 >> 11) * 2**-53``; with ``size``,
        a list of as many, equal to as many scalar draws."""
        s, inc, out = self._s, self._inc, []
        for _ in range(1 if size is None else size):
            s = (s * _MULT + inc) & _M128
            x = (s >> 64 ^ s) & _M64
            r = s >> 122
            out.append((((x >> r | x << 64 - r) & _M64) >> 11) * 2 ** -53)
        self._s = s
        return out[0] if size is None else out

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """A float on ``[low, high)``: ``low + (high - low) * u``."""
        s = self._s = (self._s * _MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        r = s >> 122
        u = (((x >> r | x << 64 - r) & _M64) >> 11) * 2 ** -53
        return low + (high - low) * u

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential draw of mean ``scale``, by numpy's 256-layer
        ziggurat: one word settles all but ~1 % of draws."""
        s = self._s = (self._s * _MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        r = s >> 122
        ri = ((x >> r | x << 64 - r) & _M64) >> 3
        idx = ri & 0xFF
        ri >>= 8
        if ri < _KE[idx]:
            return scale * (ri * _WE[idx])
        return scale * self._exponential_tail(idx, ri * _WE[idx])

    def _exponential_tail(self, idx: int, x: float) -> float:
        """The base layer's tail, layer ``idx``'s wedge, or a fresh draw."""
        if idx == 0:
            return 7.69711747013104972 - math.log1p(-self.random())
        if (_FE[idx - 1] - _FE[idx]) * self.random() + _FE[idx] < math.exp(-x):
            return x
        return self.exponential()

    def integers(self, n: int) -> int:
        """An int on ``[0, n)`` by Lemire's method: on 32-bit halves while
        the range fits one, the upper half of a split word kept for the
        next such draw; else on whole words."""
        if n <= 1:
            if n < 1:
                raise ValueError(f"empty range [0, {n})")
            return 0
        bits = 32 if n <= 1 << 32 else 64
        while True:
            u = self._u32
            if u is None or bits == 64:
                s = self._s = (self._s * _MULT + self._inc) & _M128
                x = (s >> 64 ^ s) & _M64
                r = s >> 122
                u = (x >> r | x << 64 - r) & _M64
                if bits == 32:
                    self._u32, u = u >> 32, u & _M32
            else:
                self._u32 = None
            m = u * n
            if m & (1 << bits) - 1 >= (1 << bits) % n:
                return m >> bits

    def choice(self, n: int, size: Optional[int] = None, replace: bool = True,
               p: Optional[Sequence[float]] = None):
        """``choice(n, p=w)``: an index drawn with weights ``w`` (their
        running sum over its last value, bisected at one uniform).
        ``choice(n, size, replace=False)``: ``size`` distinct indices, by
        Floyd's sample then a Fisher–Yates shuffle (by a tail shuffle of
        ``range(n)`` when ``n > 10000`` and ``size > n // 50``)."""
        if p is not None and size is None and replace:
            cdf = list(accumulate(p))
            cdf = list(map(truediv, cdf, repeat(cdf[-1])))
            return bisect_right(cdf, self.random())
        if p is not None or replace or size is None or not 0 <= size <= n:
            raise ValueError("draws choice(n, p=w) or choice(n, size, False)")
        if n > 10000 and size > n // 50:
            out, first = list(range(n)), max(n - size, 1)
        else:
            out, first, seen = [], 1, set()
            for j in range(n - size, n):
                v = self.integers(j + 1)
                out.append(j if v in seen else v)
                seen.add(out[-1])
        for i in range(len(out) - 1, first - 1, -1):
            k = self.integers(i + 1)
            out[i], out[k] = out[k], out[i]
        return out[len(out) - size:]


class RandomStreams:
    """Factory of named :class:`Stream` streams.

    Examples
    --------
    >>> a = RandomStreams(7).stream("mobility/client/3")
    >>> b = RandomStreams(7).stream("mobility/client/3")
    >>> a.random() == b.random()
    True
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._cache: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the (cached) stream for ``name``."""
        gen = self._cache.get(name)
        if gen is None:
            gen = Stream((self.seed, _key_to_entropy(name)))
            self._cache[name] = gen
        return gen


def uniforms(rng: Stream) -> Iterator[float]:
    """Endless scalar uniforms on ``[0, 1)`` from ``rng``, drawn in blocks.

    ``next(it)`` returns exactly the float that ``rng.random()`` would have
    returned at that point of the sequence: ``rng.random(n)`` holds the
    same values, in the same order, as ``n`` scalar draws. ``j * next(it)``
    likewise equals ``rng.uniform(0.0, j)`` (``0.0 + j * u``). A block of
    :data:`UNIFORM_BLOCK` values (one frame) is drawn only when the previous
    one is spent, so a stream nobody reads is never advanced.

    The iterator must be the stream's only consumer (module docs).
    """
    return chain.from_iterable(map(rng.random, repeat(UNIFORM_BLOCK)))


#: the exponential ziggurat's tables as numpy's ``_generator`` ships them,
#: 256 little-endian words each: ``ke`` (uint64), ``we`` and ``fe`` (float64;
#: ``fe`` is up to 3 ulp off ``math.exp``, so it is copied, not computed)
_TABLES = zlib.decompress(b85decode("".join("""
c-l4BcRZHg{|E3ZNr{h95-FETDoRF!yg3pjDnv!7C`rm*86}b}D>FNLuiM@`*=2<gvXY&wzNg3U@w@+
dKJIg_ajy4u-mm*{*9LMQWx27R`2Wuf!S`M2cDo5CKwe7*Y(!cHgHT@RKEhU-{rAx}4q~5<3*&)z`w0
_Kjgy-k2Z$^-{V(b-4iH8s_V%A{I6%~grF^5M<|NKqeKxic<|Lx?Z1=j~;Uu0?8`4VIa1s(}JJSCP<R
rppuV*f$aT2$5a<-RLaT3kJ&a=y3I0=_q25Br~oJ8yXvmXr>If)OS`z_?RkOU<le)o5JlCb_gr}tnlN
f;fGp`Yg>39|$x_O#<9A#}6gZKfbe&{W)3+9gU7SM?00h7n1ux^xK%Um^*H^9Rb9u9CzdVU4TKN+eM}
T}2ypizEVqX?q^2lY~brlf&RWk}$a~-OuunB&-6QmT4c8#26JHZ;d`lERG0?%Nvr!`8jXnNE4Fiq`ek
cZ;r2{LCsNTh3C<QT@f}U;TEy|lJX0Z5Mdq`8?z?~ZJ$)}JB}o=tKioCOeg$ZD$Dh!GhUaOpE;8oNu-
F17jk%zgj}o4CnhhFV3pWHHTRYz22~vcN_<G7JN<Hsr5{Q3K6F>$dPfqzA`h(c1F$Xu^cR9i!oKj*P+
>4h5HIzLc|vi0j5%&Oy(bB(?iRJKFp_AF($YN;f!BGKmPIuZuS@v+lyekGtXJzBrbd&515NY3h8U8Fe
lm0K>j#psrM;Fk5{t)mNA8Zskwi6TY+rx;zdDcEHYbq8%)Ms6yhM^v%}+H7PQrC}P`zuGOcJlRnZ?Ma
ki>XInFDJozMsQwu>tJU1M@o~(@5e)1{=3VI<AAYdgZPRT(57hSgWzCa}-6ROkCH1tnj^AxDE;5_zJO
X*Iyn~%_a%@(uTM>Y-bAn(3>2*Zoj&Py}2Zjv{6IEVpTWK9pk5v#Lg`ZF4@?i?YZbo9!VtF^*zqU?kM
c!<j*IG<;z=bVzFk7A@A4=NP^m=(8&$UWB6Qa1^Z@rM*Kk`uK)CfQ;k?@pB!0%B9a*XkoMje8%|XZ^H
~4m?V<|BB=K2tC?*jb{#M0pO9@H5HyK#Fg?-ZLPLqU{M2&f?*nx+p`>&Le#9h4x$#>XenQsKXVa>D#m
U+tX_1zr8pJJ=269qG{85@j+b66J{stbbUB$1_}-eQ2|VR3(!gmu#kK0Jbb=yv=MM+HepvD+;vVdWSt
$v4;>vv9lof8&!}tP|LQZC_^gR+7Y~Bm5_WtyFkpVT5IP;C(6td&zzRDzQ1W?a|}d=|dNE{;R_C?+2U
(u(dDf7;a!!9(`Li#=bemtK^Mc4K&-Gij@`KB3+M_O#U=7giW~S_4^O@zGA)|Q#DCE-mtVff~_sf9T&
m!GVf`T!;W8G<Wt8|%RK$7ht1lec*PQ%zs5)Fh+TduBjJhN*B<=i9X3Ote`^?4DCfCPG<JQvmscFtV{
K|B0UJKa+MI|zy?TM}pOMF|r~aEa<FC*7cl_|lG3I~gFP?Pz^zVA*cX|3eu-1pC#T>9>0|8^^Scey{I
(4yU%fq&*V!8N@o?XHQHPUSt#xfZE*LdLH`icTFX|URjvROaz^Maa0bvri4XWKw7_NrF!QUKOh<_=+j
HS(ib_*X}^V_6j^u`X66_h_)%^NnSFxbEQ*1sxgK+4Z*`4%mlt&wG{rjdxH|II*{MJ?6&o`-Gx%0U21
ProK1kSW2f^+Bqx>chT}P-WMOPvB_p*XVcwXpZ?n?3%-$uu=ys8#$WKh@{&E?{~Eiq_Ee1kwwB&<dk@
}^y>>$Oc374;d0I~F4(T)2g?Rt+tQ5rG!0zL!eK3ai`^dEucIMcmya#1}aX&<lq50QXkG9AjYHW(pzB
4az|FBVf%NB57ttWrx*T%BS?G^rr`%gvP!h#R0;i~@L3HPV}%`cMOxNoKOdVU|m4xTf-s)PHwU9YSx9
QXUBA6x62asNxaS8iFvxp3o{v=9@PI^d237tW2!At?cFoFj41s|7i5zEBV8-loQRV{)=AYyjucP8!Lv
1e{OD{su2-;k=4|WT>+P=NEV?W{2QhW0`N`*^6_Im~{VagY(b7yvDB<=OW93-Qpt7%blhA!qhlFi~l_
5o5Q(UoxDdnKLpqFl$H8ToWEA6HMt7s^88$L;)X9t>>ml~UB~&o;$#|LfODND;PN!DE3W%j>OV3#|3k
K(t=ho93p^8|R#LVk@rhS8hOorvaqnZ~GRFOJChxSv6Owo|oInr{@cq6kct5&>pNF~mx``rwPlg(g>Z
I{=sJX?Ap2h1st$3P+2d|gfhFXFd@8ibXt7*%e1m_-?D31<KBID#P&bVk!!j{LqPD>4cr%T~m?ms}3k
B{_R`?{Z~&@A(xe%J==7c||&RPO`dHT5f5oll_9Q$6vFpD~#7%8ia4G6#F>$~A9AEBKW6{8yWZ4Fr`u
%j=%D1JJ0wGAm{eM$4VtUyWXYFi)>HRgeRGG!Wl($##T;n{>5%YF<N?997s#lM|Hi#m`E%yaD#sy}eB
h&R}@ILq)CB1=`OYx@n*43R`bzmevQlL3K=jf2^H5xFU}(n|mH`)^_e%w74hSF`ct|#O4J_3in#*XT5
+{=&@#d^;=LifAZ5p-W%5KLodr_dqeut73T$ZABg-WKjrb#2Yy_UnBW=l0sg-tI_;Nzf$s6)q3|SMkn
iP*4Wah~Du-vo?a%xmQu|<=a<d=E>Kc7K#_tciew?|d;pq>4bWQpzQ~q$x(CRpi+&kDP%@_BIe+Mo6{
dGaq0WkQO{@F>b0FX{x)mAPEfFkeb&zac+!Swm|!v<!7VDjpPtzk<b1b^97=HLy2=^?&Tmal_=x29Fm
WgrNoqc=*FMS?+OcdFEYPcW2i{cC<=Dj4KkSW2a&LqMxNK>0{m2sCidOLs4YKxp9A=l8CMg6mt9T^bh
(!JBG+e>OuQqTMKD_wD!a^-d)pQ~G;Y8=Li-rwId3{qDJvyJ2wKTk459B@8wNZGUqxgo89wi(`&XIB0
VWk6tJVhX{YF;aZjm$lbincj;*aL?u$|R8~bm4}>sB{1*w@ng1<oibleUg~@(WClX8u`J(UMk#KH{@z
&JhNO*M0n#*=P685C*6}`a{1*LXIh60jNu=dh&Xz$Y~2skXBNE;LdjyJ^nX{w`OxH{3BX*LSBF=Tce-
5(9dV=A++$wos2TdSC(Su`XyxtldaMuVnU?8Adi(Qt6@R%VYs(ZFo6X1kLo2BJ9JlEQAp!0bM!kV`LP
VEtFiRhpC-cqZ&w-rpSq)wBwWP1`;|>(fhPT|yrq{;9G5`n?ZO?O4AKo*&=?oBn~2!VfSh)40eo{sGp
Ao>ysmVqqosM78e4SU74ZSbV`a7XG}yt}h-D3upY8KdU#z0#D1W)v&c#;NNHZotifeJVG@Bd{pCLW~z
fj#yJkYf#(Y@N*wHnQ)}cNjf1sBMP_A|c-T+9s+Dpv9t7Gf+XPMHVJCN{#Yl8K{N8J)U(+5BmL|=gzE
C9q@7T9OR^bHru|rGE^+5utFn(y^_fG)-`=4ZY)Fi;}J(~-x%Ly=K>P4+_G!fh!&SZ6~Cc<Koq^Or$B
4}={>$NLR1f_}ozJ!@XIH}g^#&j?VylZcrp(rN-<3g)Y=$j<4)_L`<ydVkwrhE)L_A?1`-3>ZBxROEY
NXtr<N-|Isgltw_l7We5`&X-yWN_Lz874WO3?~Prt}7o+fe)FJ4p|y0uy*)x_dVYfcpCd|L8Cqe?2Ug
qCU2%d>b$^(YiCknGlui$#iyyTGuBhtCngnMo@tjm_cawl6?t;b?M{OmA6RYu<<sEh;l&Vz*J)s7A-6
}rBn=+>sIQMN<MHB1gGPaLXuYcx#G;=LqeH*4Yh%-)o3?-F$Y45rX8vP+jv)g$M45k`K9K=2+`i%Zav
AWIhq<NiaRxA^o^Nq=&H(m$;oqil8DQv7B)+f7fV`GpirYprp!pZwqjc&_klW+?<UMyL@SQiDZj#P~3
hHVn8J$cBPc!VNev=7YR?+eQ#b?4DUaL5*`b;nq4o#w(%!KI0S-*L@EKnR(xFO7+1%+agW3`G|5Z7C$
m2R2^e9BT2GXYtk^i?LuxiAZiP6ja84rGCj8jo5tRW`K7^U}RKnhiP)V%Y&#v*A{P#|pDaHe6IX{eCG
h8ywv|t))xxaRaFyTSl`Xb!KVe6nze?NR>3S3+KRz1`em6>Nz0f-x1{aItQ*sX~qYo=D^X+{Wbz!Ik4
kh!48Ejxsa8VV!Xna3wPpIXasNPf|fML)eVPS*ghn(s+FD#;Uz9xANJ+KbG99UJ9bjQpWlZ2rU(Uu7O
U<n=u%)tHc)OOfC8L0A*XceD6sv=Vy5Q`1=!j(n(cV=pvt&p7&P<XkFkDkyLTRRSg_b#uE~R4ECv%Xt
9ZV&{KT9<K1i89rV)Ld56S9!%}$Z|@b0Xb!*EYNNSiOT-(e{L2Hy44YYGL>z0Y&5)uR9=d$`X}ek=g1
xhoR4b{2xz)$xl*<O^Z)O={(1&qAn{>2?rqD}<ett>wY2MZh@eqnN2#1b2Ha+I`}R!19;;fXZAE#1B?
pV3jC_#rk@wMUP^5nK(bqI8Y2VB1iQ-1xsLBY}(M@xdbBSuBR&wmcV^lc7u7bQmAlT;7t!H1-VH@-OB
Y+i2v;qXrNsNqqWNyHyg`<e_A_xcz-$k@>+6dzEuv_V;h?)e99qGR?|wbwH)GnFK$g>t^i(Xb6u-j70
_9kUA#4-0&G_sB8#UgAi_tD!Y5t{u}N3bmi#JVmRZ{E`)noL{r&0aj7k+~<=59;uc!j;-6M|z&s9U4(
&eVEf@)YcZGmpN8ff2bI%GXl114qi&vcV&;Z*Hpr=oKmu>YJNi}0%lCmY%S`X(A+-MCjNys8l#i(VY>
X=sN3``15<&M~`;%50lKbAMkc#<fnPqc&4E#OM^_eL2R!cyJ2+Sk;a#w3tMp&u;Ds9GF0&NjIwnRVL7
>_701f&*Lb+hQ?}Ka~$yqa-VdY`GH=1rVTZ4`hgzEC#n}6{DErOUSFxI978l33eQ$`$Izqn_==xQW5_
(^s-AesC^B{KbqIPoib7ni_7rlCqVyG|ibowINN><<?TOn6Ix>`y9(-{G*}G@*HEw=KENw&5eMR3<Py
deiRO|1E?E!<#VX^P%Zm-Pu!yChhTY;nml@Fs5A!g=hPQxfh(c_Sp{4lDQcvU#LYZ$rOIJ2969YROMI
P2JAhtP~+^Rs5dA@rVAxY${22zgfRmlNGFg!nl5UUh#NM7*skF6ti!k)7C#V1el%lGSOS8oxM*xEJnc
4zmm*3z>tP;!WSsYE7BfNt18rn$%R=8@6xAJ1jt6ynFyDb=aMi(HlVP=Z4Jvb`K!>gYhm0%KDM@&jPz
1{eDEZ@5Mw3dq46Wl<cdh??d<39DDk#`jBHRLn{q$AIhCc+a=QX6}iv_E9t%ciVW>l{QWL|MfZLkJDs
u8i$<3>I`h+dk>r+`C-FMHXz`#qm&Jiz<a_Rp9@*K05^QMa!`}8FrdJ^m(^q;BwWf*(&9)vSs+mXqqr
4k=pyJoAcHKxsOFDPrd^b{Srs!?`(}g(gYs1>}y3lu%yQa#PU1-uXL%`u&7YYl1D51X6iQZ3)9Qj(%i
6Z{1eY<JXiAIjfN>xg9A`8`D<YB5#^mIm$hqLwz`jvS8X@=Vu^dqL^V3)!dwB$PA`F772bl?vUL)X{O
sH4|?Pjd8U^sCgKkM_xDG<<<=YDVxgx*jD!b!W8$Ib|ga$X0crUv`<7^E^6Gf9v|O*jpXw47Xq{<G~J
OBqhqVG}Vr@52amF&TB`<Eo5#Vb8JT&7MJZz6xz|>7j$!{_P3+2v^Kx*PPCyr#UVo*ls4qR&Q4F~)P{
cf3=h0kZbO9;g`e~ewV|hRJvZ{_T9L5w+ZBU~R<v7U;<|@VD{A-FoMq5%MJH^Z+b;>Vq9>RAk|n5Hk&
55ntL@1x=!Hap#t(%S6goK0Sh(1X<|Wk#*^p)w?|7=yOR^b>Djbsa_|b&&XTI-~c-w?F1ar8e&o!Zl)
@2dO;3q`I)~sOV_6g0T7if;1{)Em*i|THEYecalCbp&SjY#5GUp}`;BcfBEk~%f|5nX|D`99x|s9570
1Mh{8Xjjch8|!QXI?O6D5*g8eqI}1~YZV&M^P(dU-w+Mxi?(9KKxRGqv(KZt=|Mdj`{A#6gS8%|aX8g
KX{bY+mm&)G*wrD?WBUq}1nbb`>zM}!#%j^A-nhG#p|vQbP2lETrCKETBxAL8do7|=s?au<)}SRTekm
1;8g#{D`!j9+8nj9Q)!$>)C_o^nn>n%?)qXnJkfBzMLY|1wb?mN2+Y(otESsxP!xw*^FxM)SPQUt1N~
Q`K*p(*fZmB}2Td19OmR2Ik;QJ=LHkHU~yvU|jq!Q_T6i@G8u0W4E1-T4!E09&%?AUX&3Utc2fons!0
&(q~{`GsI9G#-5*y!byqte*C8AbDQME%mhI`wQh@|<jpTc0gMEY$3eoXpD*R5_+Ctd^or1zyybUX`M?
Lain19i=G9FO}8Dy99Mz^PzEOFG06A?Df@SicvZf{~|qqF?!2md^@C|2<N~V6{<@`NJm8{^I}IK$`k1
k*VHOR#}+TOUYjjIM*6~+S?mi?f!U}_I#U4>Q@-QK8J&*`tHn;-Kb?;j;=1fj>+%pMu)n#jo`)!`uVv
|GDTs?A(C6tyLB9t+Y7B5tkVKKs&$X;vbhcHkU{o#_9q;j;5BZ*hG=eU6?6b>344Fs59`4OS;Sr(1mR
Z?|?ME%U^7U-g=IL*-Jeh@zwly<pxnv=auoFtYJXuIG#xTLPCKLH8o4>uJlZg~R-g2(rmWjkToY@)UG
tl1pr7rd>8OS0)uduZ%9i1MR4qoI;N26K%vEjODh)GrON^@o^l6%g%)o~*QO&r|*uvjhyIrWq>SqCSh
*Y-~;izbqg$Q;MzS7J%%s;!N~N3TTm%+lT<@OuK%7d^j!Tr>fN??}!m_K8O~(kajPOvRxKkvw(tGI8i
*d(G~f(XnW%CSV?jSj4W+!;*aO1NzJM_i|);3`%1`FAf}zLG<Of8V);0qtCk*?&VBJp{Q*3h*sq&q||
9kZ(SUTW>)`G%i@Vd-a+Yg%iIy@v6+%}+TSol&mpYh-TxjLsjezUm4>3w>%L=S(IH5dcQ>Q1TQJfMo>
o3)9)tqcoqGiz1R_hxXcKpp0Hj2f94CI|9V(r5ZdSVBk6vpE9%%<ZBy_%Ds6osZ-MeR^A|v60W~n%7Z
%BKi<~rAbjZiOi`=|j+0mTEIY>>LS+U<r);@>`=q;f?|W=Ug|)6S@ob%f5(zzJy^DpllXI3i<<?4NpT
uh5^ad&lRm+oKvyvsI<rcId2Z;OB|M)`;uu^tlLXOSEz5dvoBbDY__mTTgtuF=Cc)dX=sE6#d<dT5#!
pgt%jd67>DG&=CoGm0UhGRIu*(duNsclBbIh+FvD({s(?2DP;
""".split())))
_KE = struct.unpack_from("<256Q", _TABLES, 0)
_WE = struct.unpack_from("<256d", _TABLES, 2048)
_FE = struct.unpack_from("<256d", _TABLES, 4096)
