"""Skewed workload generator: one dominant violation-graph component.

The HOSP/Tax generators produce many similarly-sized components — the
friendly case for component-sharded parallelism. This module generates
its adversary: a relation whose violation graph has **one giant
connected component** holding a configurable fraction of the vertices,
plus a fringe of small ones. Component scheduling flatlines on it (the
giant is a single task); it exercises the executor's schedule
determinism and largest-first submission in :mod:`repro.exec`
(``docs/parallelism.md``).

Construction: every FD's LHS attribute is populated with *staircase
chains*. Chain ``c`` contributes values

    ``prefix(c) + "b" * i + "a" * (S - i)``        for ``i = 0..len-1``

over a fixed stair width ``S``, so two values of the same chain are
exactly ``|i - j|`` substitutions apart and two values of different
chains at least 3 (the 3-letter prefixes are pairwise 3 edits apart).
Each chain maps to a single RHS value, so adjacent stairs differ in
projection while their Eq. (2) distance is ``w_lhs * 1 / W`` (width
``W = 3 + S``). The analytic threshold ``tau = w_lhs * 1.5 / W`` then
makes **exactly the adjacent stairs** FT-violations: each chain becomes
a path in the violation graph — connected, and with a maximal-
independent-set count that grows as the Fibonacci numbers of its
length, the worst-case search profile for one component.

``dominance`` controls skew: the giant FD gets one chain of ``chain``
vertices plus small chains totalling ``round(chain * (1 - f) / f)``
vertices, so the giant holds fraction ``f`` of that FD's graph. The two
satellite FDs (attribute-disjoint, hence separate FD-graph components)
carry only small chains — their tasks exist so largest-first submission
has something to overlap with the giant.
"""

from __future__ import annotations

import string
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import FD
from repro.core.distances import Weights
from repro.dataset.relation import Relation, Schema

#: chain prefixes are 3 repeats of one letter: pairwise 3 edits apart
_PREFIX_LETTERS = string.ascii_lowercase
_PREFIX_LEN = 3

#: stairs of a small (fringe) chain
_SMALL_CHAIN = 4

SKEW_SCHEMA = Schema.of("Code", "Name", "City", "State", "Zip", "County")

SKEW_FDS: List[FD] = [
    FD.parse("Code -> Name", name="s1"),  #: the giant component's FD
    FD.parse("City -> State", name="s2"),
    FD.parse("Zip -> County", name="s3"),
]


def _chain_lengths(total: int, chain: int) -> List[int]:
    """Split *total* fringe vertices into small chains."""
    lengths: List[int] = []
    remaining = total
    while remaining > 0:
        size = min(_SMALL_CHAIN, remaining)
        # a 1-vertex chain is an isolated pattern, still a component
        lengths.append(size)
        remaining -= size
    if len(lengths) + 1 > len(_PREFIX_LETTERS):
        raise ValueError(
            f"dominance/chain combination needs {len(lengths) + 1} chains; "
            f"at most {len(_PREFIX_LETTERS)} per attribute are supported"
        )
    return lengths


def _stair_values(
    lengths: Sequence[int],
) -> Tuple[List[List[str]], int]:
    """Per-chain staircase LHS values over one shared stair width.

    Returns (values per chain, total string width W). All values of the
    attribute share the same length, so same-chain distances are pure
    substitution counts: ``ned = |i - j| / W``.
    """
    stairs = max(length - 1 for length in lengths)
    width = _PREFIX_LEN + stairs
    chains: List[List[str]] = []
    for c, length in enumerate(lengths):
        prefix = _PREFIX_LETTERS[c] * _PREFIX_LEN
        chains.append(
            [prefix + "b" * i + "a" * (stairs - i) for i in range(length)]
        )
    return chains, width


def _fd_patterns(
    lengths: Sequence[int], rhs_stub: str
) -> Tuple[List[Tuple[str, str]], int]:
    """(LHS, RHS) patterns of one FD's chains and the LHS width."""
    chains, width = _stair_values(lengths)
    patterns: List[Tuple[str, str]] = []
    for c, values in enumerate(chains):
        rhs = f"{rhs_stub}{c:03d}"
        patterns.extend((value, rhs) for value in values)
    return patterns, width


def skew_chain_lengths(
    dominance: float = 0.9, chain: int = 24
) -> List[int]:
    """Chain lengths of the giant FD: the dominant chain, then fringe."""
    if not 0.0 < dominance <= 1.0:
        raise ValueError(f"dominance must be in (0, 1], got {dominance}")
    if chain < 2:
        raise ValueError(f"chain must be >= 2, got {chain}")
    fringe = int(round(chain * (1.0 - dominance) / dominance))
    return [chain] + _chain_lengths(fringe, chain)


def generate_skew(
    n: int,
    dominance: float = 0.9,
    chain: int = 24,
    small_chains: int = 3,
) -> Relation:
    """A relation of *n* rows whose violation graph is *dominance*-skewed.

    ``chain`` is the giant path's vertex count — the search over it
    visits ~Fib(chain) nodes, so it is the knob that makes the dominant
    component expensive. ``small_chains`` is the chain count of *each*
    satellite FD. Rows cycle over the patterns of every FD
    independently, so multiplicities are near-uniform and every pattern
    is populated. The generator is fully deterministic: same arguments,
    same relation.
    """
    giant_patterns, _ = _fd_patterns(
        skew_chain_lengths(dominance, chain), "nm"
    )
    city_patterns, _ = _fd_patterns([_SMALL_CHAIN] * small_chains, "st")
    zip_patterns, _ = _fd_patterns([_SMALL_CHAIN] * small_chains, "co")
    if n < len(giant_patterns):
        raise ValueError(
            f"need n >= {len(giant_patterns)} rows to populate every "
            f"pattern, got {n}"
        )
    relation = Relation(SKEW_SCHEMA)
    for t in range(n):
        code, name = giant_patterns[t % len(giant_patterns)]
        city, state = city_patterns[t % len(city_patterns)]
        zip_, county = zip_patterns[t % len(zip_patterns)]
        relation.append((code, name, city, state, zip_, county))
    return relation


def skew_thresholds(
    fds: Optional[Sequence[FD]] = None,
    weights: Weights = Weights(),
    dominance: float = 0.9,
    chain: int = 24,
) -> Dict[FD, float]:
    """Analytic taus making exactly the adjacent stairs FT-violations.

    Same-chain neighbours sit at ``w_lhs * 1 / W``; the next candidates
    are two stairs (``w_lhs * 2 / W``) or another chain (at least
    ``w_lhs * 3 / W`` before the RHS term). ``tau = w_lhs * 1.5 / W``
    separates the two with margin on both sides. The width ``W`` of
    each attribute follows from the same arguments passed to
    :func:`generate_skew`.
    """
    lengths = skew_chain_lengths(dominance, chain)
    giant_stairs = max(length - 1 for length in lengths)
    widths = {
        "s1": _PREFIX_LEN + giant_stairs,
        "s2": _PREFIX_LEN + _SMALL_CHAIN - 1,
        "s3": _PREFIX_LEN + _SMALL_CHAIN - 1,
    }
    out: Dict[FD, float] = {}
    for fd in fds if fds is not None else SKEW_FDS:
        width = widths.get(fd.name)
        if width is None:
            raise ValueError(f"unknown skew FD {fd.name!r}")
        out[fd] = weights.lhs * 1.5 / width
    return out
