"""Deterministic JSON schemas for the CLI artifacts.

Labels inside categories are nested tuples of ints/strings; JSON holds
them as nested lists and the loader converts back, so a build/load
round-trip is the identity.  All dumps are byte-stable: sorted keys,
fixed separators, no floats except the explicitly rounded timings.
"""

from __future__ import annotations

import json

from .fincat import validate_category


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _freeze(x):
    if isinstance(x, list):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        raise ValueError("a label cannot be a JSON object: %r" % (x,))
    return x


def _thaw(x):
    if isinstance(x, tuple):
        return [_thaw(v) for v in x]
    return x


def fincat_to_json(C):
    # sorted by (g, f)
    pairs = zip(*(a.tolist() for a in C.pairs()))
    return {
        "schema": "fincat/1",
        "objects": [_thaw(o) for o in C.objects],
        "morphisms": [
            {"label": _thaw(m), "src": _thaw(C.objects[s]),
             "tgt": _thaw(C.objects[t])}
            for m, s, t in zip(C.mor_labels, C.src.tolist(), C.tgt.tolist())],
        "identities": [[_thaw(o), _thaw(C.mor_labels[i])]
                       for o, i in zip(C.objects, C.identity_of.tolist())],
        "composition": [[_thaw(C.mor_labels[g]), _thaw(C.mor_labels[f]),
                         _thaw(C.mor_labels[h])]
                        for g, f, h in pairs],
    }


def fincat_from_json(doc, guards=None):
    """Load a category artifact; raises ValueError for a bad schema, a
    missing key, a malformed entry or an identity or composite given
    twice, and CategoryError (a ValueError) unless the tables form a
    category."""
    from .guards import DEFAULT
    if not isinstance(doc, dict) or doc.get("schema") != "fincat/1":
        raise ValueError("not a fincat artifact")
    for key in ("objects", "morphisms", "identities", "composition"):
        if not isinstance(doc.get(key), list):
            raise ValueError("fincat: %r must be a list" % key)
    for m in doc["morphisms"]:
        if not (isinstance(m, dict) and {"label", "src", "tgt"} <= set(m)):
            raise ValueError("fincat: morphism %r is not "
                             "{label, src, tgt}" % (m,))
    for key, width in (("identities", 2), ("composition", 3)):
        for entry in doc[key]:
            if not (isinstance(entry, list) and len(entry) == width):
                raise ValueError("fincat: %s entry %r does not have %d "
                                 "items" % (key, entry, width))
    objects = [_freeze(o) for o in doc["objects"]]
    morphisms = [(_freeze(m["label"]), _freeze(m["src"]), _freeze(m["tgt"]))
                 for m in doc["morphisms"]]
    identities = _table(((_freeze(o), _freeze(m))
                         for o, m in doc["identities"]), "identity of")
    comp = _table((((_freeze(g), _freeze(f)), _freeze(h))
                   for g, f, h in doc["composition"]), "composite of")
    return validate_category(objects, morphisms, identities, comp,
                             guards=guards or DEFAULT)


def _table(entries, what):
    """The dict of (key, value) entries; a key given twice is rejected,
    not overwritten."""
    out = {}
    for key, value in entries:
        if key in out:
            raise ValueError("fincat: %s %s given twice"
                             % (what, json.dumps(_thaw(key))))
        out[key] = value
    return out


def ring_to_json(ring):
    return ring.descriptor()


def flag_to_json(flag):
    return [[list(row) for row in m.mat] for m in flag.members]


def complex_to_json(cx):
    return {
        "schema": "chaincomplex/1",
        "dims": list(cx.dims),
        "complete": cx.complete,
        "boundaries": {
            str(k): [list(e) for e in zip(d.rows.tolist(),
                                          d.col_index().tolist(),
                                          d.vals.tolist())]
            for k, d in sorted(cx.boundaries.items())},
    }


def complex_from_json(doc, guards=None):
    """Load a chain complex artifact; raises ValueError unless the schema,
    the dimensions (at least two degrees unless the complex is complete),
    every (row, column) index, each value (within 64 bits) and d.d = 0
    all check out, and GuardExceeded for a dimension past
    max_simplices_per_degree."""
    from .guards import DEFAULT
    from .homology import CSC, ChainComplex
    if not isinstance(doc, dict) or doc.get("schema") != "chaincomplex/1":
        raise ValueError("not a chain complex artifact")
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims or \
            not all(_is_int(d) and d >= 0 for d in dims):
        raise ValueError("chain complex: dims must be a non-empty list of "
                         "non-negative integers")
    for k, d in enumerate(dims):
        (guards or DEFAULT).check(d, "max_simplices_per_degree",
                                  "chain complex: degree %d" % k)
    complete = doc.get("complete", False)
    if not isinstance(complete, bool):
        raise ValueError("chain complex: complete must be true or false")
    if not complete and len(dims) < 2:
        # a truncated complex certifies degrees below its top one only
        raise ValueError("chain complex: an incomplete complex needs at "
                         "least two degrees, got dims %s" % (dims,))
    given = doc.get("boundaries", {})
    if not isinstance(given, dict):
        raise ValueError("chain complex: boundaries must be an object")
    # a boundary left out is the zero map
    boundaries = {}
    for key, triples in given.items():
        if not (key.isascii() and key.isdigit()) or \
                not 1 <= int(key) < len(dims) or \
                not isinstance(triples, list):
            raise ValueError("chain complex: no boundary d_%s for dims %s"
                             % (key, dims))
        k = int(key)
        seen = set()
        for entry in triples:
            if not (isinstance(entry, list) and len(entry) == 3
                    and all(_is_int(x) for x in entry)):
                raise ValueError("chain complex: d_%d entry %r is not "
                                 "[row, column, value]" % (k, entry))
            r, c, v = entry
            if not (0 <= r < dims[k - 1] and 0 <= c < dims[k]):
                raise ValueError("chain complex: d_%d entry (%d, %d) outside "
                                 "%d x %d" % (k, r, c, dims[k - 1], dims[k]))
            if (r, c) in seen:
                raise ValueError("chain complex: d_%d entry (%d, %d) repeated"
                                 % (k, r, c))
            if not -2 ** 63 < v < 2 ** 63:
                raise ValueError("chain complex: d_%d entry (%d, %d) value "
                                 "%d does not fit in 64 bits" % (k, r, c, v))
            seen.add((r, c))
        rows, cols, vals = zip(*triples) if triples else ((), (), ())
        boundaries[k] = CSC.from_entries(dims[k - 1], dims[k], rows, cols, vals)
    cx = ChainComplex(dims, boundaries, complete=complete)
    cx.verify_boundary_squared()
    return cx


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def homology_to_json(h):
    return {
        "schema": "homology/1",
        "coefficients": h.coefficients,
        "betti": {str(k): v for k, v in sorted(h.betti.items())},
        "torsion": {str(k): list(v) for k, v in sorted(h.torsion.items())},
        "trusted_max_degree": h.trusted_max,
        "chain_dims": list(h.dims),
    }
