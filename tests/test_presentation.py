import itertools
import sys

import numpy as np

from rbscat import homology as homology_module
from rbscat.checks import _named_small_category
from rbscat.fincat import (
    Group,
    Poset,
    group_category,
    poset_category,
    terminal_category,
)
from rbscat.homology import homology, nerve_chain_complex
from rbscat.presentation import GroupPresentation, pi1_presentation, tietze_trivial
from rbscat.toolkit import is_weakly_contractible


def bz(k):
    return group_category(
        Group(range(k), np.add.outer(range(k), range(k)) % k, 0))


def poset(elements, pairs):
    """The poset on elements whose relation holds exactly on the pairs."""
    pairs = set(pairs)
    return Poset(elements, [[(a, b) in pairs for b in elements]
                            for a in elements])


def disk_face_poset(m=6):
    """Face poset of the m x m grid of unit squares, each cut along its
    diagonal into two triangles: a triangulated disk with (m + 1)^2
    vertices, m(3m + 2) edges and 2m^2 triangles (241 faces for m = 6)."""
    faces = set()
    for i, j in itertools.product(range(m), repeat=2):
        for corner in ((i + 1, j), (i, j + 1)):
            tri = ((i, j), corner, (i + 1, j + 1))
            for k in (1, 2, 3):
                faces.update(itertools.combinations(sorted(tri), k))
    faces = sorted(faces)
    return Poset(faces, [[set(a) <= set(b) for b in faces] for a in faces])


def test_terminal_trivial_presentation():
    pres = pi1_presentation(terminal_category())
    assert pres.generators == ()
    assert pres.abelianization() == ([], 0)
    assert tietze_trivial(pres) is True


def test_chain_poset_trivial():
    P = poset([0, 1], [(0, 0), (1, 1), (0, 1)])
    pres = pi1_presentation(poset_category(P))
    assert tietze_trivial(pres) is True


def test_bz3_presentation():
    pres = pi1_presentation(bz(3))
    assert len(pres.generators) == 2
    # one relator per composable pair of the 2 non-identity morphisms
    assert len(pres.relators) == 4
    assert pres.abelianization() == ([3], 0)
    assert tietze_trivial(pres) is False


def test_bz2_presentation():
    pres = pi1_presentation(bz(2))
    assert pres.abelianization() == ([2], 0)


def test_free_group_from_circle():
    P = poset(["v1", "v2", "e1", "e2"],
              [(x, x) for x in ["v1", "v2", "e1", "e2"]] +
              [("v1", "e1"), ("v2", "e1"), ("v1", "e2"), ("v2", "e2")])
    pres = pi1_presentation(poset_category(P))
    assert pres.abelianization() == ([], 1)  # the circle: Z
    assert tietze_trivial(pres) is False


def test_h1_equals_abelianization_on_corpus():
    cats = [terminal_category(), bz(2), bz(3),
            poset_category(poset([0, 1], [(0, 0), (1, 1), (0, 1)])),
            _named_small_category("RBS-F2-2"),
            poset_category(disk_face_poset())]
    for C in cats:
        pres = pi1_presentation(C)
        torsion, free_rank = pres.abelianization()
        h = homology(nerve_chain_complex(C, 2), "Z")
        assert h.betti[1] == free_rank
        assert h.torsion[1] == sorted(torsion)


def test_manual_presentation_abelianization():
    # <a, b | a^2 b, b^3> has abelianization Z/... relator matrix [[2,1],[0,3]]
    pres = GroupPresentation(("a", "b"), ((1, 1, 2), (2, 2, 2)))
    torsion, free = pres.abelianization()
    assert free == 0
    assert torsion == [6]


def test_disk_certificate_runs_the_dense_snf_only_on_the_core(monkeypatch):
    # the abelianization of the disk's 432 x 432 relator matrix used to go
    # to the dense Smith normal form with transforms (about 20 s); now every
    # Smith form call is no larger than a residual core of the kernel
    real_snf = homology_module.smith_normal_form
    real_eliminate = homology_module.eliminate_units
    shapes, cores = [], []

    def recording_snf(A):
        shapes.append((len(A), len(A[0]) if A else 0))
        return real_snf(A)

    def recording_eliminate(columns, ell=None):
        pivots, core = real_eliminate(columns, ell)
        support = {i for line in core for i in line}
        cores.append(min(len(core), len(support)))
        return pivots, core

    for name, module in list(sys.modules.items()):
        if name.startswith("rbscat") and \
                getattr(module, "smith_normal_form", None) is real_snf:
            monkeypatch.setattr(module, "smith_normal_form", recording_snf)
    monkeypatch.setattr(homology_module, "eliminate_units",
                        recording_eliminate)
    C = poset_category(disk_face_poset())
    assert C.n_objects == 241
    cert = is_weakly_contractible(C, 3)
    assert cert.verdict == "contractible" and cert.pi1_trivial is True
    assert shapes and cores
    assert all(max(shape) <= max(cores) for shape in shapes), (shapes, cores)
