"""Keyed oracles for the fibration layer, which runs on ids.

These are the keyed constructions the library used before it held total
categories and functors on ids: fibrations built as tuple-keyed ``comp``
dicts handed to ``FiniteCategory.from_keys``, and ``check_functor`` walking
key-to-key maps through the keyed views.  The tests compare the id tables
and reports against them exactly.
"""

from __future__ import annotations

from spanforge.fib import SubSlice
from spanforge.feistel import conv_fibre, extend
from spanforge.internal import FiniteCategory, budget
from spanforge.report import Report, ReportBuilder


def keyed_maps(fd) -> tuple[dict, dict]:
    """The object and arrow maps of a FunctorData from source keys to image keys."""

    def key(labels, v):  # an id past the end stays itself, which is no key of the target either
        return labels[v] if type(v) is int and 0 <= v < len(labels) else v

    object_map = {x: key(fd.target.objects, y) for x, y in zip(fd.source.objects, fd.obj)}
    arrow_map = {a: key(fd.target.arrows, b) for a, b in zip(fd.source.arrows, fd.arr)}
    return object_map, arrow_map


def check_functor_by_keys(source: FiniteCategory, target: FiniteCategory, object_map, arrow_map) -> Report:
    """check_functor as it read key-to-key maps."""
    rb = ReportBuilder()
    target_objects, target_arrows = set(target.objects), set(target.arrows)
    for x in source.objects:
        if not rb.require(x in object_map, "object-map-total", x):
            continue
        rb.require(object_map[x] in target_objects, "object-map-lands", x)
    for a in source.arrows:
        if not rb.require(a in arrow_map, "arrow-map-total", a):
            continue
        fa = arrow_map[a]
        if not rb.require(fa in target_arrows, "arrow-map-lands", a):
            continue
        rb.require(
            target.src[fa] == object_map.get(source.src[a])
            and target.dst[fa] == object_map.get(source.dst[a]),
            "endpoints-preserved",
            a,
        )
    for x in source.objects:
        if x in object_map and source.ident[x] in arrow_map:
            image = object_map[x]
            rb.require(
                image in target.ident and arrow_map[source.ident[x]] == target.ident[image],
                "identities-preserved",
                x,
            )
    for (f, g), h in source.comp.items():
        if f in arrow_map and g in arrow_map and h in arrow_map:
            pair = (arrow_map[f], arrow_map[g])
            rb.require(
                pair in target.comp and target.comp[pair] == arrow_map[h],
                "composition-preserved",
                (f, g),
            )
    return rb.report()


def base_category_by_keys(ss: SubSlice) -> FiniteCategory:
    """The sub-slice's base category from a keyed comp dict; the keys are the ids."""
    cells = [(*ss.arrow_endpoints(k), cell.map.table) for k, cell in enumerate(ss.arrows)]
    index = {cell: k for k, cell in enumerate(cells)}
    comp = {
        (k1, k2): index[(i1, j2, tuple(phi2[v] for v in phi1))]
        for k1, (i1, j1, phi1) in enumerate(cells)
        for k2, (i2, j2, phi2) in enumerate(cells)
        if j1 == i2
    }
    ident = {i: index[(i, i, tuple(range(obj.a.size)))] for i, obj in enumerate(ss.objects)}
    src = {k: i for k, (i, _, _) in enumerate(cells)}
    dst = {k: j for k, (_, j, _) in enumerate(cells)}
    return FiniteCategory.from_keys(range(len(ss.objects)), range(len(cells)), src, dst, ident, comp)


def fibration_by_keys(ss: SubSlice, keys: list, lifts) -> tuple[FiniteCategory, dict, dict]:
    """The total category from a keyed comp dict, with its projection's key maps.

    ``lifts(k, i, j)`` yields (source key, target key) pairs over base arrow k.
    """
    base = base_category_by_keys(ss)
    objects = tuple((i, t) for i, fibre in enumerate(keys) for t in fibre)
    arrows = tuple((k, s, t) for k in base.arrows for s, t in lifts(k, base.src[k], base.dst[k]))
    src = {a: (base.src[a[0]], a[1]) for a in arrows}
    dst = {a: (base.dst[a[0]], a[2]) for a in arrows}
    ident = {(i, t): (base.ident[i], t, t) for i, t in objects}
    by_src: dict = {}
    for a in arrows:
        by_src.setdefault(src[a], []).append(a)
    comp = {}
    for a1 in arrows:
        for a2 in by_src.get(dst[a1], ()):
            comp[(a1, a2)] = (base.comp[(a1[0], a2[0])], a1[1], a2[2])
    total = FiniteCategory.from_keys(objects, arrows, src, dst, ident, comp)
    return total, {t: t[0] for t in objects}, {a: a[0] for a in arrows}


def conv_fibration_by_keys(ss: SubSlice):
    keys = [[e.map.table for e in conv_fibre(obj, ss.ic)] for obj in ss.objects]
    key_sets = [set(fibre) for fibre in keys]

    def lifts(k: int, i: int, j: int):
        phi = ss.arrows[k].map.table
        for beta in keys[j]:
            pulled = tuple(beta[v] for v in phi)
            if pulled in key_sets[i]:
                yield pulled, beta

    return fibration_by_keys(ss, keys, lifts)


def endo_fibration_by_keys(ss: SubSlice):
    keys = [[extend(alpha).cell.map.table for alpha in conv_fibre(obj, ss.ic)] for obj in ss.objects]
    plans = ss._plans

    def lifts(k: int, i: int, j: int):
        budget(len(keys[i]) * len(keys[j]), f"{len(keys[i])}x{len(keys[j])} endomorphism pairs")
        sig = ss.arrows[k].map.table
        for u_table in keys[i]:
            for v_table in keys[j]:
                if plans[i].square_holds(plans[j], u_table, v_table, sig, sig):
                    yield u_table, v_table

    return fibration_by_keys(ss, keys, lifts)
