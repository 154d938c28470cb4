"""Oracles for the checkers, which run on ids and count each law once.

Keyed tables: ``category_from_keys`` builds a FiniteCategory from keyed
dicts, and ``KeyedViews`` reads one back as keyed ``src``, ``dst``, ``ident``
and ``hom``.  The library builds categories on ids only.

Keyed oracles: the keyed constructions the library used before it held total
categories and functors on ids, that is fibrations built as tuple-keyed
``comp`` dicts handed to ``category_from_keys``, and ``check_functor``
walking key-to-key maps through the keyed views.

Per-instance oracles (``*_by_index``, ``*_by_instance``): the law checks
walked one instance at a time, with one ``require`` per check, as the
checkers were written before they recorded failures only.  They read
``extend``, ``retrieve`` and the key decoders through the library's modules
at call time, so a fault injected there reaches both sides.

The tests compare the id tables and reports against them exactly.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

import spanforge.feistel as feistel
import spanforge.fib as fib
from spanforge.errors import MalformedTables, UnderlyingCategoryInvalid
from spanforge.feistel import conv_fibre, extend
from spanforge.fib import FunctorData, SubSlice, _at, _image_arrow
from spanforge.finset import FinMap, all_maps, compose, group_by_value
from spanforge.internal import CategoryTables, FiniteCategory, budget
from spanforge.report import Report, ReportBuilder

from util import pairs, require


def category_from_keys(
    objects, arrows, src: Mapping, dst: Mapping, ident: Mapping, comp: Mapping
) -> FiniteCategory:
    """The category of keyed tables, numbered in the order the keys are listed.

    ``comp[(f, g)]`` is "f then g", defined for exactly the pairs with ``dst[f] == src[g]``;
    the laws are checked on ids, so the first failure named is the first in id order.
    """
    oid = {x: i for i, x in enumerate(objects)}
    if len(oid) != len(objects):
        raise MalformedTables("duplicate object keys")
    aid = {a: f for f, a in enumerate(arrows)}
    if len(aid) != len(arrows):
        raise MalformedTables("duplicate arrow keys")
    s, t = [], []
    for a in arrows:
        x, y = oid.get(src[a]), oid.get(dst[a])
        if x is None or y is None:
            raise MalformedTables(f"arrow {a!r} has unknown endpoints")
        s.append(x)
        t.append(y)
    out, pos = group_by_value(s, len(objects))
    # a key that names no arrow and one that names an arrow with the wrong
    # ends get one message, so each lookup tests the ends it reads
    idents = []
    for x, key in enumerate(objects):
        e = aid.get(ident.get(key))
        if e is None or s[e] != x or t[e] != x:
            raise MalformedTables(f"object {key!r} lacks an identity arrow")
        idents.append(e)
    if len(comp) != sum(len(out[y]) for y in t):
        raise MalformedTables("composition table keys must be exactly the composable pairs")
    rows = [[0] * len(out[y]) for y in t]
    for (f, g), h in comp.items():
        fi, gi = aid.get(f), aid.get(g)
        if fi is None or gi is None or t[fi] != s[gi]:
            raise MalformedTables(f"({f!r}, {g!r}) is not a composable pair")
        hi = aid.get(h)
        if hi is None or s[hi] != s[fi] or t[hi] != t[gi]:
            raise MalformedTables(f"composite of ({f!r}, {g!r}) has wrong endpoints")
        rows[fi][pos[gi]] = hi
    tables = CategoryTables(tuple(s), tuple(t), tuple(idents), out, pos, tuple(map(tuple, rows)))
    return FiniteCategory(tuple(objects), tuple(arrows), tables)


class KeyedViews:
    """A FiniteCategory read by keys: ``src``, ``dst`` and ``ident`` dicts, and ``hom(x, y)``."""

    def __init__(self, fc: FiniteCategory):
        objects, arrows, cat = fc.objects, fc.arrows, fc.tables
        self.arrows = arrows
        self.src = dict(zip(arrows, (objects[x] for x in cat.s)))
        self.dst = dict(zip(arrows, (objects[y] for y in cat.t)))
        self.ident = dict(zip(objects, (arrows[e] for e in cat.ident)))

    def hom(self, x, y) -> tuple:
        """The arrows from x to y, in id order."""
        return tuple(a for a in self.arrows if self.src[a] == x and self.dst[a] == y)


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
    source_views, target_views = KeyedViews(source), KeyedViews(target)
    for x in source.objects:
        if not require(rb, x in object_map, "object-map-total", x):
            continue
        require(rb, object_map[x] in target_objects, "object-map-lands", x)
    for a in source.arrows:
        if not require(rb, a in arrow_map, "arrow-map-total", a):
            continue
        fa = arrow_map[a]
        if not require(rb, fa in target_arrows, "arrow-map-lands", a):
            continue
        require(
            rb,
            target_views.src[fa] == object_map.get(source_views.src[a])
            and target_views.dst[fa] == object_map.get(source_views.dst[a]),
            "endpoints-preserved",
            a,
        )
    for x in source.objects:
        if x in object_map and source_views.ident[x] in arrow_map:
            image = object_map[x]
            require(
                rb,
                image in target_views.ident and arrow_map[source_views.ident[x]] == target_views.ident[image],
                "identities-preserved",
                x,
            )
    for (f, g), h in source.comp.items():
        if f in arrow_map and g in arrow_map and h in arrow_map:
            pair = (arrow_map[f], arrow_map[g])
            require(
                rb,
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
    return category_from_keys(range(len(ss.objects)), range(len(cells)), src, dst, ident, comp)


def fibration_by_keys(ss: SubSlice, keys: list, lifts) -> tuple[FiniteCategory, dict, dict]:
    """The total category from a keyed comp dict, with its projection's key maps.

    ``lifts(k, i, j)`` yields (source key, target key) pairs over base arrow k.
    """
    base = base_category_by_keys(ss)
    views = KeyedViews(base)
    objects = tuple((i, t) for i, fibre in enumerate(keys) for t in fibre)
    arrows = tuple((k, s, t) for k in base.arrows for s, t in lifts(k, views.src[k], views.dst[k]))
    src = {a: (views.src[a[0]], a[1]) for a in arrows}
    dst = {a: (views.dst[a[0]], a[2]) for a in arrows}
    ident = {(i, t): (views.ident[i], t, t) for i, t in objects}
    by_src: dict = {}
    for a in arrows:
        by_src.setdefault(src[a], []).append(a)
    comp = {}
    for a1 in arrows:
        for a2 in by_src.get(dst[a1], ()):
            comp[(a1, a2)] = (base.comp[(a1[0], a2[0])], a1[1], a2[2])
    total = category_from_keys(objects, arrows, src, dst, ident, comp)
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


def pair_index(pb):
    """Each pair of a pullback -> its position, by a scan of its pairs."""
    return {pair: i for i, pair in enumerate(pairs(pb))}


def then_by_index(ic, a, b):
    """"a then b" read through an index of the composable pairs, or None off it."""
    i = pair_index(ic.composable).get((a, b))
    return None if i is None else ic.mu.table[i]


def category_report_by_index(ic):
    """The category laws walked one by one, "a then b" read through the pullback index.

    The oracle for check_internal_category: the same laws, witnesses and order.
    """
    rb = ReportBuilder()
    d, c, eta, mu = ic.d.table, ic.c.table, ic.eta.table, ic.mu.table
    composable, arrows, label = pairs(ic.composable), range(ic.m.size), ic.m.label
    for o in range(ic.o.size):
        require(rb, d[eta[o]] == o, "identity-source", f"object {ic.o.label(o)}")
        require(rb, c[eta[o]] == o, "identity-target", f"object {ic.o.label(o)}")
    for (a, b), ab in zip(composable, mu):
        require(rb, d[ab] == d[a], "composition-source", f"pair ({label(a)}, {label(b)})")
        require(rb, c[ab] == c[b], "composition-target", f"pair ({label(a)}, {label(b)})")
    for m in arrows:
        left = then_by_index(ic, eta[d[m]], m)
        if require(rb, left is not None, "left-unit", f"arrow {label(m)} not composable"):
            require(rb, left == m, "left-unit", f"arrow {label(m)}")
    for m in arrows:
        right = then_by_index(ic, m, eta[c[m]])
        if require(rb, right is not None, "right-unit", f"arrow {label(m)} not composable"):
            require(rb, right == m, "right-unit", f"arrow {label(m)}")
    for (a, b), ab in zip(composable, mu):
        for x in arrows:
            bx = then_by_index(ic, b, x)
            if bx is None:
                continue
            lhs, rhs = then_by_index(ic, ab, x), then_by_index(ic, a, bx)
            witness = f"triple ({label(a)}, {label(b)}, {label(x)})"
            if require(rb, lhs is not None and rhs is not None, "associativity", witness):
                require(rb, lhs == rhs, "associativity", witness)
    return rb.report()


def groupoid_report_by_index(g):
    """The inversion laws walked one by one: the oracle for check_internal_groupoid."""
    underlying = category_report_by_index(g.cat)
    if not underlying.passed:
        raise UnderlyingCategoryInvalid(underlying)
    ic, rb = g.cat, ReportBuilder()
    d, c, eta, iota = ic.d.table, ic.c.table, ic.eta.table, g.iota.table
    for m in range(ic.m.size):
        lab = f"arrow {ic.m.label(m)}"
        require(rb, c[iota[m]] == d[m], "inverse-flips-target", lab)
        require(rb, d[iota[m]] == c[m], "inverse-flips-source", lab)
    for m in range(ic.m.size):
        lab = f"arrow {ic.m.label(m)}"
        right = then_by_index(ic, m, iota[m])
        if require(rb, right is not None, "right-inverse-law", f"{lab} not composable with inverse"):
            require(rb, right == eta[d[m]], "right-inverse-law", lab)
        left = then_by_index(ic, iota[m], m)
        if require(rb, left is not None, "left-inverse-law", f"{lab} not composable with inverse"):
            require(rb, left == eta[c[m]], "left-inverse-law", lab)
    for m in range(ic.m.size):
        require(rb, iota[iota[m]] == m, "inverse-involutive", f"arrow {ic.m.label(m)}")
    return rb.report()


def check_functor_by_instance(fd: FunctorData) -> Report:
    """check_functor with one require per object, arrow or composable pair."""
    rb = ReportBuilder()
    src, tgt = fd.source.tables, fd.target.tables
    obj = tuple(fd.obj) + (None,) * (len(src.ident) - len(fd.obj))
    arr = tuple(fd.arr) + (None,) * (len(src.s) - len(fd.arr))
    lands_obj = [type(y) is int and 0 <= y < len(tgt.ident) for y in obj]
    lands_arr = [type(a) is int and 0 <= a < len(tgt.s) for a in arr]
    for x, key in enumerate(fd.source.objects):
        if require(rb, obj[x] is not None, "object-map-total", key):
            require(rb, lands_obj[x], "object-map-lands", key)
    for f, key in enumerate(fd.source.arrows):
        total = require(rb, arr[f] is not None, "arrow-map-total", key)
        if total and require(rb, lands_arr[f], "arrow-map-lands", key):
            ends = (tgt.s[arr[f]], tgt.t[arr[f]])
            require(rb, ends == (obj[src.s[f]], obj[src.t[f]]), "endpoints-preserved", key)
    for x, key in enumerate(fd.source.objects):
        if obj[x] is not None and arr[src.ident[x]] is not None:
            require(rb, lands_obj[x] and arr[src.ident[x]] == tgt.ident[obj[x]], "identities-preserved", key)
    for f, row in enumerate(src.rows):
        if arr[f] is None:
            continue
        image_row, image_t = (tgt.rows[arr[f]], tgt.t[arr[f]]) if lands_arr[f] else ((), None)
        for g, h in zip(src.out[src.t[f]], row):
            if arr[g] is not None and arr[h] is not None:
                require(
                    rb,
                    lands_arr[g] and tgt.s[arr[g]] == image_t and image_row[tgt.pos[arr[g]]] == arr[h],
                    "composition-preserved",
                    (fd.source.arrows[f], fd.source.arrows[g]),
                )
    return rb.report()


def check_discrete_fibration_by_instance(fi) -> Report:
    """check_discrete_fibration with one require per base arrow into each fibre object's base object."""
    rb = ReportBuilder()
    lifts = Counter(zip(fi.proj.arr, fi.total.tables.t))
    for y, over in enumerate(fi.proj.obj):
        for k in (k for k, z in enumerate(fi.base.tables.t) if z == over):
            where = f"base arrow {fi.base.arrows[k]!r}, fibre object {fi.total.objects[y]!r}"
            require(rb, lifts[(k, y)] == 1, "unique-lift", f"{where}, lifts {lifts[(k, y)]}")
    return rb.report()


def functor_over_base_by_instance(rb, source, target, move, prefix, over_base) -> FunctorData:
    """fib._functor_over_base with one require per object or arrow."""
    tgt = target.total
    images, obj = [], []
    for key in source.total.objects:
        images.append((key[0], move(*key)))
        obj.append(tgt.object_id.get(images[-1], images[-1]))
        require(rb, type(obj[-1]) is int, f"{prefix}welldefined", key)
    arr = []
    for f, key in enumerate(source.total.arrows):
        image = _image_arrow(source, f, images)
        arr.append(tgt.arrow_id.get(image, image))
        require(rb, type(arr[-1]) is int, f"{prefix}welldefined", key)
    fd = FunctorData(source.total, tgt, tuple(obj), tuple(arr))
    rb.merge(check_functor_by_instance(fd), prefix)
    objects_law, arrows_law = over_base
    for x, key in enumerate(source.total.objects):
        require(rb, _at(target.proj.obj, obj[x]) == source.proj.obj[x], objects_law, key)
    for f, key in enumerate(source.total.arrows):
        require(rb, _at(target.proj.arr, arr[f]) == source.proj.arr[f], arrows_law, key)
    return fd


def cartesian_iso_by_instance(ss: SubSlice) -> Report:
    """The report of cartesian_iso, with one require per check."""
    conv, endo = fib.build_conv_fibration(ss), fib.build_endo_fibration(ss)
    rb = ReportBuilder()

    def extended(i, table):
        return fib._extended(ss, (i, table))[1]

    def retrieved(i, table):
        return fib.retrieve(fib._as_endo(ss, i, table)).table

    triangle = ("projection-triangle", "projection-triangle")
    forward = functor_over_base_by_instance(rb, conv, endo, extended, "forward-", triangle)
    backward = functor_over_base_by_instance(rb, endo, conv, retrieved, "backward-", triangle)
    for there, back in ((forward, backward), (backward, forward)):
        for x, key in enumerate(there.source.objects):
            require(rb, _at(back.obj, there.obj[x]) == x, "mutual-inverse-objects", key)
        for f, key in enumerate(there.source.arrows):
            require(rb, _at(back.arr, there.arr[f]) == f, "mutual-inverse-arrows", key)
    fibres = [conv_fibre(obj, ss.ic) for obj in ss.objects]
    for k, cell in enumerate(ss.arrows):
        i, j = ss.arrow_endpoints(k)
        plan, arrow, sigma = ss._plans[i], ss._plans[j].arrow, cell.map.table
        for beta in fibres[j]:
            pulled = tuple(beta.table[v] for v in sigma)
            pulled_then_extended = fib.extend(fib._conv(plan, pulled)).table
            hat = fib.extend(beta).table
            extended_then_pulled = plan.extend(tuple(arrow[hat[v]] for v in sigma))
            require(rb, pulled_then_extended == extended_then_pulled, "fibrewise-naturality", (k, beta.table))
    return rb.report()


def transport_conv_by_instance(k, functor, ss: SubSlice) -> Report:
    """The report of transport_conv, with one require per check."""
    ss2 = fib.transported_subslice(k, functor, ss)
    conv1, conv2 = fib.build_conv_fibration(ss), fib.build_conv_fibration(ss2)
    endo1, endo2 = fib.build_endo_fibration(ss), fib.build_endo_fibration(ss2)
    rb = ReportBuilder()

    def move_conv(i, table):
        return compose(functor.fm, k.arr(FinMap(ss.objects[i].a, ss.ic.m, table))).table

    def move_endo(i, table):
        moved_bar = compose(functor.fm, k.arr(fib._as_endo(ss, i, table).bar))
        return fib._extended(ss2, (i, moved_bar.table))[1]

    p_square, q_square = ("p-square-objects", "p-square-arrows"), ("q-square-objects", "q-square-arrows")
    conv_map = functor_over_base_by_instance(rb, conv1, conv2, move_conv, "conv-transport-", p_square)
    endo_map = functor_over_base_by_instance(rb, endo1, endo2, move_endo, "endo-transport-", q_square)
    extended = [fib._extended(ss, key) for key in conv1.total.objects]
    moved = [fib._extended(ss2, conv2.total.objects[y] if type(y) is int else y) for y in conv_map.obj]
    for x, key in enumerate(conv1.total.objects):
        lhs = _at(endo_map.obj, endo1.total.object_id.get(extended[x]))
        require(rb, lhs == endo2.total.object_id.get(moved[x], moved[x]), "intertwine-objects", key)
    for f, key in enumerate(conv1.total.arrows):
        lhs = _at(endo_map.arr, endo1.total.arrow_id.get(_image_arrow(conv1, f, extended)))
        rhs = _image_arrow(conv1, f, moved)
        require(rb, lhs == endo2.total.arrow_id.get(rhs, rhs), "intertwine-arrows", key)
    return rb.report()


def verify_adjunction_by_instance(conv_objects, end_objects, groupoid=None) -> Report:
    """The report of verify_adjunction, with one require per pair and per element."""
    rb = ReportBuilder()
    for alpha in conv_objects:
        hat, a_obj = feistel.extend(alpha), alpha.base
        for beta in end_objects:
            b_obj = beta.base
            n_candidates = b_obj.a.size ** a_obj.a.size
            budget(n_candidates * n_candidates, f"{n_candidates}^2 candidate morphisms")
            slice_cells = [phi.table for phi in all_maps(a_obj.a, b_obj.a) if compose(b_obj.f, phi) == a_obj.f]
            end_homset = [
                (phi, psi)
                for phi in slice_cells
                for psi in slice_cells
                if hat.plan.square_holds(beta.plan, hat.table, beta.table, phi, psi)
            ]
            bar = feistel.retrieve(beta).table
            conv_homset = [phi for phi in slice_cells if tuple(bar[v] for v in phi) == alpha.table]
            firsts = [phi for phi, _ in end_homset]
            ok = len(firsts) == len(set(firsts)) and sorted(firsts) == sorted(conv_homset)
            require(
                rb,
                ok,
                "hom-bijection",
                f"bases |A|={a_obj.a.size}, |B|={b_obj.a.size}: "
                f"{len(end_homset)} endomorphism morphisms vs {len(conv_homset)} slice cells",
            )
    if groupoid is not None:
        for alpha in conv_objects:
            inverse = feistel.kleisli_inverse(feistel.extend(alpha))
            require(rb, inverse is not None, "automorphism", f"extend of {alpha.table} has no two-sided inverse")
    return rb.report()
