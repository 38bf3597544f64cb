"""Resource guards.

Every potentially explosive enumeration in the library is bounded by an
explicit limit from a GuardConfig.  Exceeding a limit raises GuardExceeded
(never silent truncation).  All limits live here so the CLI can load them
from a single config file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields


class GuardExceeded(RuntimeError):
    """An enumeration would exceed a configured resource limit."""


@dataclass
class GuardConfig:
    # ring_linalg
    max_ring_size: int = 256
    max_gl_candidates: int = 10_000_000       # |R|^(n^2) brute-force bound
    max_vector_enum: int = 1_000_000          # |R|^n bound for vector/submodule enumeration
    # fincat
    max_simplices_per_degree: int = 2_000_000
    # composable triples that the exact associativity check (Light's
    # test) compares; past it validation raises.  Fibers with a terminal
    # or initial object are validated together as one category, so for
    # them the bound is on the sum of their triples
    max_assoc_triples: int = 20_000_000
    # composable pairs of one functor check, and of each fiber, checked
    # fiber by fiber in target order before any pair is built; proper-p
    # builds no right fiber, so there it bounds the left fibers of each
    # strict-fiber inclusion only
    max_functor_pairs: int = 20_000_000
    # composable pairs of a flag or group category, counted from the
    # hom-set sizes before the pair arrays are allocated
    max_composable_pairs: int = 20_000_000
    tietze_budget: int = 200_000
    # rbs / groups
    max_group_order: int = 100_000
    # qkt
    max_total_dim: int = 3                    # --cap on graded-list total dimension
    max_filt_morphisms: int = 20_000

    def check(self, value, limit_name, what):
        limit = getattr(self, limit_name)
        if value > limit:
            raise GuardExceeded(
                "%s requires %d > %s=%d" % (what, value, limit_name, limit))
        return value


DEFAULT = GuardConfig()


def load_config(path):
    """Load a GuardConfig from a JSON file; unknown keys are rejected."""
    with open(path) as fh:
        raw = json.load(fh)
    known = {f.name for f in fields(GuardConfig)}
    bad = set(raw) - known
    if bad:
        raise ValueError("unknown guard keys: %s" % sorted(bad))
    return GuardConfig(**raw)
