"""Oracles for the checkers, which run on ids and count each law once.

Keyed categories: ``FiniteCategory`` labels a category on ids with keys,
refuses malformed tables and runs the law pass at construction, raising the
first failure by key, as the library did before it held every category as
its tables alone.  ``category_from_keys`` builds one from keyed dicts,
``external_by_keys`` keys ``external_category`` by its map tables, and
``KeyedViews`` reads one back as keyed ``src``, ``dst``, ``ident`` and
``hom``.  The library builds categories on ids only.  ``external_by_loops``
builds the category of maps out of C by plain loops over the listed maps, as
the library built it before it carried ``ic`` along the hom functor.

Keyed oracles: the keyed constructions the library used before it held total
categories and functors on ids, that is fibrations built as tuple-keyed
``comp`` dicts handed to ``category_from_keys``, and ``check_functor``
walking key-to-key maps through the keyed views.

Total categories: ``total_category`` builds a presheaf's total category and
projection on ids, law-checked by ``FiniteCategory`` and ``check_functor``, as
the library built each fibration before it held it as its presheaf; the base
on ids is keyed by its ids (``keyed_base``), so its law pass runs here too;
``discrete_fibration_by_total`` is the verdict of that path, and
``fibre_map_functor`` reads a map of fibres as the functor between total
categories that it was.

The pairwise square: ``square_holds`` tests an endomorphism morphism's square
generator by generator, as the library did for every pair before it found
squares by one face join.

Per-instance oracles (``*_by_index``, ``*_by_instance``): the law checks
walked one instance at a time, with one ``require`` per check, as the
checkers were written before they recorded failures only.  They read
``extend``, ``retrieve`` and the key decoders through the library's modules
at call time, so a fault injected there reaches both sides.

The tests compare the id tables and reports against them exactly.

Feistel tables: ``feistel_by_loops`` builds both tables of a Feistel network
round by round over every state, as the library built them before it walked
one state at a time.

Functor forms (``*_by_functors``): ``cartesian_iso`` and ``transport_conv``
as they checked each map of fibrations before they checked only its fibre
maps, that is as a functor between total categories, with the functor laws,
both projection squares, and inverses and intertwining on arrows too.  The
tests require the same verdicts from both forms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Mapping

import spanforge.feistel as feistel
import spanforge.fib as fib
from spanforge.catalog import MonoidTable
from spanforge.errors import MalformedTables
from spanforge.feistel import conv_fibre, extend
from spanforge.fib import SubSlice
from spanforge.finset import FinMap, all_maps, compose, group_by_value
from spanforge.internal import CategoryTables, InternalCategory, _ids, budget, external_category, law_failures
from spanforge.report import Report, ReportBuilder

from util import pairs, require


@dataclass(frozen=True, eq=False)
class FiniteCategory:
    """An explicit category on ids, whose keys name them in messages.

    ``tables`` is the category: object x has the key ``objects[x]`` and arrow
    f the key ``arrows[f]``.  Construction refuses malformed tables, then checks the
    laws by the pass that checks internal categories and raises the first
    failure, naming keys.
    """

    objects: tuple
    arrows: tuple
    tables: CategoryTables

    def __post_init__(self) -> None:
        objects, arrows, cat = self.objects, self.arrows, self.tables
        n, m = len(objects), len(arrows)
        if len(cat.ident) != n or not len(cat.s) == len(cat.t) == len(cat.rows) == m:
            raise MalformedTables("tables must hold one identity per object and one row per arrow")
        if not (_ids(cat.s, n) and _ids(cat.t, n) and _ids(cat.ident, m)):
            raise MalformedTables("endpoints must be object ids and identities arrow ids")
        if (cat.out, cat.pos) != group_by_value(cat.s, n):
            raise MalformedTables("out and pos must list the arrows leaving each object in id order")
        for f, row in enumerate(cat.rows):
            if len(row) != len(cat.out[cat.t[f]]) or not _ids(row, m):
                raise MalformedTables(f"row of {arrows[f]!r} must hold an arrow id per arrow leaving its end")
        failure = next(law_failures(cat), None)
        if failure is None:
            return
        law, ids, _ = failure
        if law.startswith("identity"):
            raise MalformedTables(f"object {objects[ids[0]]!r} lacks an identity arrow")
        names = ", ".join(repr(arrows[f]) for f in ids)
        if law.startswith("composition"):
            raise MalformedTables(f"composite of ({names}) has wrong endpoints")
        if law != "associativity":
            raise MalformedTables(f"{law.removesuffix('-unit')} identity law fails at {names}")
        raise MalformedTables(f"associativity fails at ({names})")

    @cached_property
    def comp(self) -> dict:
        """(f, g) -> "f then g", one entry per composable pair, row by row."""
        a, cat = self.arrows, self.tables
        return {(a[f], a[g]): a[h] for f, row in enumerate(cat.rows) for g, h in zip(cat.out[cat.t[f]], row)}


def external_by_keys(ic: InternalCategory, c_obj) -> FiniteCategory:
    """``external_category``'s tables keyed by the map tables, listed as ``all_maps`` lists them, so that
    the law pass the library skips runs on them."""
    tables = external_category(ic, c_obj)  # budgeted before any map is listed
    objects = tuple(f.table for f in all_maps(c_obj, ic.o))
    arrows = tuple(a.table for a in all_maps(c_obj, ic.m))
    return FiniteCategory(objects, arrows, tables)


def external_by_loops(ic: InternalCategory, c_obj) -> CategoryTables:
    """The category of maps out of c_obj on ids, a map's id its place in the ``all_maps`` listing.

    Each arrow's ends, each identity and each composite is computed point by
    point through ``ic.tables`` and found by its place in those lists.
    """
    objects = [f.table for f in all_maps(c_obj, ic.o)]
    arrows = [a.table for a in all_maps(c_obj, ic.m)]
    oid = {x: i for i, x in enumerate(objects)}
    aid = {a: f for f, a in enumerate(arrows)}
    cat = ic.tables
    s = tuple(oid[tuple(cat.s[v] for v in a)] for a in arrows)
    t = tuple(oid[tuple(cat.t[v] for v in a)] for a in arrows)
    ident = tuple(aid[tuple(cat.ident[v] for v in x)] for x in objects)
    out = tuple(tuple(g for g in range(len(arrows)) if s[g] == x) for x in range(len(objects)))
    pos = [0] * len(arrows)
    for row in out:
        for i, g in enumerate(row):
            pos[g] = i
    rows = tuple(
        tuple(aid[tuple(map(cat.then, arrows[f], arrows[g]))] for g in out[t[f]]) for f in range(len(arrows))
    )
    return CategoryTables(s, t, ident, out, tuple(pos), rows)


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


@dataclass
class FunctorData:
    """Tabular functor between finite categories: ``obj[x]`` and ``arr[f]`` are target ids.

    None is no image.  An image outside the target is held as its key, which is no id: it
    fails every law that reads it, and two such images compare by their keys.
    """

    source: FiniteCategory
    target: FiniteCategory
    obj: tuple
    arr: tuple


def check_functor(fd: FunctorData) -> Report:
    """Check the functor laws on ids, one check per object, arrow or composable pair; witnesses are keys."""
    rb = ReportBuilder()
    src, tgt = fd.source.tables, fd.target.tables
    n_obj, n_arr = len(src.ident), len(src.s)
    obj = (tuple(fd.obj) + (None,) * n_obj)[:n_obj]  # padded with no image, and cut to the source
    arr = (tuple(fd.arr) + (None,) * n_arr)[:n_arr]
    lands_obj = [type(y) is int and 0 <= y < len(tgt.ident) for y in obj]
    lands_arr = [type(a) is int and 0 <= a < len(tgt.s) for a in arr]
    for x, key in enumerate(fd.source.objects):
        if not lands_obj[x]:
            rb.fail("object-map-total" if obj[x] is None else "object-map-lands", key)
    for f, key in enumerate(fd.source.arrows):
        if not lands_arr[f]:
            rb.fail("arrow-map-total" if arr[f] is None else "arrow-map-lands", key)
        elif (tgt.s[arr[f]], tgt.t[arr[f]]) != (obj[src.s[f]], obj[src.t[f]]):
            rb.fail("endpoints-preserved", key)
    # an image outside the target has no identity or composite there, which fails the law
    units = [x for x in range(n_obj) if obj[x] is not None and arr[src.ident[x]] is not None]
    for x in units:
        if not (lands_obj[x] and arr[src.ident[x]] == tgt.ident[obj[x]]):
            rb.fail("identities-preserved", fd.source.objects[x])
    # a row at a time: "f then g" is read off the row of f's image, when g's image leaves its target
    keys, t_s, t_pos, pairs = fd.source.arrows, tgt.s, tgt.pos, 0
    for f, row in enumerate(src.rows):
        if arr[f] is None:
            continue
        image_row, image_t = (tgt.rows[arr[f]], tgt.t[arr[f]]) if lands_arr[f] else ((), None)
        for g, h in zip(src.out[src.t[f]], row):
            if arr[g] is not None and arr[h] is not None:
                pairs += 1
                if not (lands_arr[g] and t_s[arr[g]] == image_t and image_row[t_pos[arr[g]]] == arr[h]):
                    rb.fail("composition-preserved", (keys[f], keys[g]))
    for law, n in (
        ("object-map-total", n_obj), ("object-map-lands", n_obj - obj.count(None)), ("arrow-map-total", n_arr),
        ("arrow-map-lands", n_arr - arr.count(None)), ("endpoints-preserved", sum(lands_arr)),
        ("identities-preserved", len(units)), ("composition-preserved", pairs),
    ):
        rb.count(law, n)
    return rb.report()


def total_tables(fi):
    """(objects, arrows, over, tables) of a presheaf's total category on ids, unchecked.

    Objects are (i, key) fibre by fibre; an arrow (k, key_u, key_v) runs to each element v from each of
    its lifts u over base arrow k, listed as in ``fi.lifts``, and ``over[a]`` is its base arrow.  An
    identity or composite is the lift of the base's between the same ends, and None where there is none.
    """
    base, fibres = fi.base, fi.fibres
    start = list(accumulate(map(len, fibres), initial=0))
    objects = tuple((i, key) for i, fibre in enumerate(fibres) for key in fibre)
    arrows, over, s, t = [], [], [], []
    for k, (i, j, row) in enumerate(zip(base.s, base.t, fi.lifts)):
        for v, us in enumerate(row):
            for u in us:
                arrows.append((k, fibres[i][u], fibres[j][v]))
                over.append(k)
                s.append(start[i] + u)
                t.append(start[j] + v)
    lift = {ends: a for a, ends in enumerate(zip(over, s, t))}
    ident = tuple(lift.get((base.ident[i], x, x)) for x, (i, _) in enumerate(objects))
    out, pos = group_by_value(s, len(objects))
    over_pos = [base.pos[k] for k in over]
    rows = tuple(
        tuple(lift.get((base_row[over_pos[g]], x, t[g])) for g in out[y])
        for base_row, x, y in zip(map(base.rows.__getitem__, over), s, t)
    )
    return objects, tuple(arrows), tuple(over), CategoryTables(tuple(s), tuple(t), ident, out, pos, rows)


def keyed_base(base: CategoryTables) -> FiniteCategory:
    """A base category on ids as a FiniteCategory keyed by its ids, so the law pass the library skips runs."""
    return FiniteCategory(tuple(range(len(base.ident))), tuple(range(len(base.s))), base)


def total_category(fi) -> tuple[FiniteCategory, FunctorData]:
    """The total category and projection of a presheaf, refused as the library refused them: a missing
    identity or composite or a failed law by FiniteCategory, and a projection that is no functor."""
    objects, arrows, over, tables = total_tables(fi)
    total = FiniteCategory(objects, arrows, tables)
    proj = FunctorData(total, keyed_base(fi.base), tuple(i for i, _ in objects), over)
    report = check_functor(proj)
    if not report.passed:
        raise MalformedTables(f"projection is not a functor: {report.first()}")
    return total, proj


def discrete_fibration_by_total(fi) -> Report:
    """The verdict of the total-category path on a presheaf: ``unique-lift`` counted over the total
    category's arrows, one require per base arrow into each object's base object, then ``total-category``,
    one require that the total category and its projection are built, witnessed by the refusal."""
    rb = ReportBuilder()
    objects, _, over, tables = total_tables(fi)
    lifts, base_t = Counter(zip(over, tables.t)), fi.base.t
    for y, (j, key) in enumerate(objects):
        for k in (k for k, z in enumerate(base_t) if z == j):
            where = f"base arrow {k}, fibre object {(j, key)!r}"
            require(rb, lifts[(k, y)] == 1, "unique-lift", f"{where}, lifts {lifts[(k, y)]}")
    refusal = None
    try:
        total_category(fi)
    except MalformedTables as exc:
        refusal = str(exc)
    require(rb, refusal is None, "total-category", refusal)
    return rb.report()


def fibre_map_functor(source, target, images) -> FunctorData:
    """A map of fibres, ``images[i][u]`` a position in target's fibre i or an image not there, as the functor
    between total categories that it is: an arrow goes to the one over its base arrow between its ends'
    images, and an object or arrow whose image is not in the target to that image's key."""
    src, src_proj = total_category(source)
    tgt, tgt_proj = total_category(target)
    start = list(accumulate(map(len, target.fibres), initial=0))
    image_keys = [target.fibres[i][y] if type(y) is int else y for i, row in enumerate(images) for y in row]
    obj = tuple(start[i] + y if type(y) is int else (i, y) for i, row in enumerate(images) for y in row)
    lifts = {ends: a for a, ends in enumerate(zip(tgt_proj.arr, tgt.tables.s, tgt.tables.t))}
    arr = []
    for k, x, y in zip(src_proj.arr, src.tables.s, src.tables.t):
        a = lifts.get((k, obj[x], obj[y]))
        arr.append((k, image_keys[x], image_keys[y]) if a is None else a)
    return FunctorData(src, tgt, obj, tuple(arr))


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


def square_holds(src, dst, u: tuple, v: tuple, sigma: tuple, tau: tuple) -> bool:
    """The square of an endomorphism morphism (sigma, tau): u over plan src -> v over plan dst, pair by pair.

    Holds when v(sigma(a)) = (tau(x), m) for every generator a with u(a) = (x, m).
    """
    for a, s in enumerate(u):
        t = v[sigma[a]]
        if dst.carrier[t] != tau[src.carrier[s]] or dst.arrow[t] != src.arrow[s]:
            return False
    return True


def endo_fibration_by_keys(ss: SubSlice):
    keys = [[extend(alpha).cell.map.table for alpha in conv_fibre(obj, ss.ic)] for obj in ss.objects]
    plans = ss._plans

    def lifts(k: int, i: int, j: int):
        budget(len(keys[i]) * len(keys[j]), f"{len(keys[i])}x{len(keys[j])} endomorphism pairs")
        sig = ss.arrows[k].map.table
        for v_table in keys[j]:  # v-major, the order the library lists the arrows in
            for u_table in keys[i]:
                if square_holds(plans[i], plans[j], u_table, v_table, sig, sig):
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
    composable, arrows = pairs(ic.composable), range(ic.m.size)
    for o in range(ic.o.size):
        require(rb, d[eta[o]] == o, "identity-source", f"object {o}")
        require(rb, c[eta[o]] == o, "identity-target", f"object {o}")
    for (a, b), ab in zip(composable, mu):
        require(rb, d[ab] == d[a], "composition-source", f"pair ({a}, {b})")
        require(rb, c[ab] == c[b], "composition-target", f"pair ({a}, {b})")
    for m in arrows:
        left = then_by_index(ic, eta[d[m]], m)
        if require(rb, left is not None, "left-unit", f"arrow {m} not composable"):
            require(rb, left == m, "left-unit", f"arrow {m}")
    for m in arrows:
        right = then_by_index(ic, m, eta[c[m]])
        if require(rb, right is not None, "right-unit", f"arrow {m} not composable"):
            require(rb, right == m, "right-unit", f"arrow {m}")
    for (a, b), ab in zip(composable, mu):
        for x in arrows:
            bx = then_by_index(ic, b, x)
            if bx is None:
                continue
            lhs, rhs = then_by_index(ic, ab, x), then_by_index(ic, a, bx)
            witness = f"triple ({a}, {b}, {x})"
            if require(rb, lhs is not None and rhs is not None, "associativity", witness):
                require(rb, lhs == rhs, "associativity", witness)
    return rb.report()


def groupoid_report_by_index(g):
    """The inversion laws walked one by one, or the category's report where it fails: the oracle for
    check_internal_groupoid."""
    underlying = category_report_by_index(g.cat)
    if not underlying.passed:
        return underlying
    ic, rb = g.cat, ReportBuilder()
    d, c, eta, iota = ic.d.table, ic.c.table, ic.eta.table, g.iota.table
    for m in range(ic.m.size):
        lab = f"arrow {m}"
        require(rb, c[iota[m]] == d[m], "inverse-flips-target", lab)
        require(rb, d[iota[m]] == c[m], "inverse-flips-source", lab)
    for m in range(ic.m.size):
        lab = f"arrow {m}"
        right = then_by_index(ic, m, iota[m])
        if require(rb, right is not None, "right-inverse-law", f"{lab} not composable with inverse"):
            require(rb, right == eta[d[m]], "right-inverse-law", lab)
        left = then_by_index(ic, iota[m], m)
        if require(rb, left is not None, "left-inverse-law", f"{lab} not composable with inverse"):
            require(rb, left == eta[c[m]], "left-inverse-law", lab)
    for m in range(ic.m.size):
        require(rb, iota[iota[m]] == m, "inverse-involutive", f"arrow {m}")
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
    """check_discrete_fibration with one require per base arrow into each element's object, per element, and
    per composable base pair and element of the far fibre."""
    rb = ReportBuilder()
    base, lifts = fi.base, fi.lifts
    arrows = range(len(base.s))
    for j, fibre in enumerate(fi.fibres):
        for v, key in enumerate(fibre):
            for k in (k for k in arrows if base.t[k] == j):
                where = f"base arrow {k}, fibre object {(j, key)!r}"
                require(rb, len(lifts[k][v]) == 1, "unique-lift", f"{where}, lifts {len(lifts[k][v])}")
    for i, fibre in enumerate(fi.fibres):
        for u, key in enumerate(fibre):
            require(rb, lifts[base.ident[i]][u] == (u,), "reindex-identity", (i, key))
    for k in arrows:
        for g in (g for g in arrows if base.s[g] == base.t[k]):
            h, far = base.then(k, g), base.t[g]
            for w, key in enumerate(fi.fibres[far]):
                composite = [u for v in lifts[g][w] for u in lifts[k][v]]
                witness = (k, g, (far, key))
                require(rb, sorted(lifts[h][w]) == sorted(composite), "reindex-composite", witness)
    return rb.report()


def fibre_map_by_instance(rb, source, target, move, law) -> tuple:
    """fib._fibre_map with one require per element or lift."""
    images = []
    for i, fibre in enumerate(source.fibres):
        images.append([])
        for key in fibre:
            image = move(i, key)
            found = [y for y, other in enumerate(target.fibres[i]) if other == image]
            images[-1].append(found[0] if found else image)
            require(rb, bool(found), f"{law}-lands", (i, key))
    base = source.base
    for k, row in enumerate(source.lifts):
        i, j = base.s[k], base.t[k]
        for v, us in enumerate(row):
            for u in us:
                x, y = images[i][u], images[j][v]
                witness = (k, source.fibres[i][u], source.fibres[j][v])
                require(rb, type(y) is int and target.lifts[k][y] == (x,), f"{law}-natural", witness)
    return tuple(map(tuple, images))


def fibrewise_naturality_by_instance(rb, ss: SubSlice) -> None:
    """cartesian_iso's fibrewise naturality: conv_base_change then extend is extend then endo_base_change."""
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


def iso_directions(ss: SubSlice):
    """cartesian_iso's extension and retrieval on element keys, read through fib at call time."""

    def extended(i, table):
        return fib._extended(ss, (i, table))[1]

    def retrieved(i, table):
        return fib.retrieve(fib._as_endo(ss, i, table)).table

    return extended, retrieved


def cartesian_iso_by_instance(ss: SubSlice) -> Report:
    """The report of cartesian_iso, with one require per check."""
    conv, endo = fib.build_conv_fibration(ss), fib.build_endo_fibration(ss)
    rb = ReportBuilder()
    extended, retrieved = iso_directions(ss)
    forward = fibre_map_by_instance(rb, conv, endo, extended, "forward")
    backward = fibre_map_by_instance(rb, endo, conv, retrieved, "backward")
    for source, there, back in ((conv, forward, backward), (endo, backward, forward)):
        for i, row in enumerate(there):
            for u, y in enumerate(row):
                require(rb, type(y) is int and back[i][y] == u, "mutual-inverse", (i, source.fibres[i][u]))
    fibrewise_naturality_by_instance(rb, ss)
    return rb.report()


def transport_moves(k, functor, ss: SubSlice):
    """transport_conv's maps on convolution and endomorphism keys, read through fib at call time."""
    ss2 = fib.transported_subslice(k, functor, ss)

    def move_conv(i, table):
        return compose(functor.fm, k.arr(FinMap(ss.objects[i].a, ss.ic.m, table))).table

    def move_endo(i, table):
        moved_bar = compose(functor.fm, k.arr(fib._as_endo(ss, i, table).bar))
        return fib._extended(ss2, (i, moved_bar.table))[1]

    return ss2, move_conv, move_endo


def transport_conv_by_instance(k, functor, ss: SubSlice) -> Report:
    """The report of transport_conv, with one require per check."""
    ss2, move_conv, move_endo = transport_moves(k, functor, ss)
    conv1, conv2 = fib.build_conv_fibration(ss), fib.build_conv_fibration(ss2)
    endo1, endo2 = fib.build_endo_fibration(ss), fib.build_endo_fibration(ss2)
    rb = ReportBuilder()
    fibre_map_by_instance(rb, conv1, conv2, move_conv, "conv-transport")
    fibre_map_by_instance(rb, endo1, endo2, move_endo, "endo-transport")
    for i, table in ((i, table) for i, fibre in enumerate(conv1.fibres) for table in fibre):
        lhs = (i, move_endo(*fib._extended(ss, (i, table))))
        require(rb, lhs == fib._extended(ss2, (i, move_conv(i, table))), "intertwine", (i, table))
    return rb.report()


def functor_over_base_by_functors(rb, source, target, move, prefix, over_base) -> FunctorData:
    """The map of fibrations as a functor between total categories, as cartesian_iso and transport_conv
    checked it before they checked only fibre maps: every image exists (``<prefix>welldefined``), the
    functor laws (prefixed), and that the functor lies over the base, on objects and on arrows."""
    (source_total, source_proj), (tgt, target_proj) = total_category(source), total_category(target)
    object_ids = {key: y for y, key in enumerate(tgt.objects)}
    arrow_ids = {key: a for a, key in enumerate(tgt.arrows)}
    images, obj = [], []
    for key in source_total.objects:
        images.append((key[0], move(*key)))
        obj.append(object_ids.get(images[-1], images[-1]))
        require(rb, type(obj[-1]) is int, f"{prefix}welldefined", key)
    arr, src = [], source_total.tables
    for f, key in enumerate(source_total.arrows):
        image = (source_proj.arr[f], images[src.s[f]][1], images[src.t[f]][1])
        arr.append(arrow_ids.get(image, image))
        require(rb, type(arr[-1]) is int, f"{prefix}welldefined", key)
    fd = FunctorData(source_total, tgt, tuple(obj), tuple(arr))
    functor = check_functor_by_instance(fd)
    for failure in functor.failures:
        rb.fail(prefix + failure.law, failure.witness)
    for law, n in functor.checked.items():
        rb.count(prefix + law, n)
    objects_law, arrows_law = over_base
    for x, key in enumerate(source_total.objects):
        y = obj[x]
        require(rb, type(y) is int and target_proj.obj[y] == source_proj.obj[x], objects_law, key)
    for f, key in enumerate(source_total.arrows):
        a = arr[f]
        require(rb, type(a) is int and target_proj.arr[a] == source_proj.arr[f], arrows_law, key)
    return fd


def cartesian_iso_by_functors(ss: SubSlice) -> Report:
    """cartesian_iso's report as it read both directions as functors, with their inverses on arrows too."""
    conv, endo = fib.build_conv_fibration(ss), fib.build_endo_fibration(ss)
    rb = ReportBuilder()
    extended, retrieved = iso_directions(ss)
    triangle = ("projection-triangle", "projection-triangle")
    forward = functor_over_base_by_functors(rb, conv, endo, extended, "forward-", triangle)
    backward = functor_over_base_by_functors(rb, endo, conv, retrieved, "backward-", triangle)
    for there, back in ((forward, backward), (backward, forward)):
        for x, key in enumerate(there.source.objects):
            y = there.obj[x]
            require(rb, type(y) is int and back.obj[y] == x, "mutual-inverse-objects", key)
        for f, key in enumerate(there.source.arrows):
            a = there.arr[f]
            require(rb, type(a) is int and back.arr[a] == f, "mutual-inverse-arrows", key)
    fibrewise_naturality_by_instance(rb, ss)
    return rb.report()


def transport_conv_by_functors(k, functor, ss: SubSlice) -> Report:
    """transport_conv's report as it read both transports as functors, with both projection squares and
    the intertwining on arrows too."""
    ss2, move_conv, move_endo = transport_moves(k, functor, ss)
    conv1, conv2 = fib.build_conv_fibration(ss), fib.build_conv_fibration(ss2)
    endo1, endo2 = fib.build_endo_fibration(ss), fib.build_endo_fibration(ss2)
    rb = ReportBuilder()
    p_square, q_square = ("p-square-objects", "p-square-arrows"), ("q-square-objects", "q-square-arrows")
    conv_map = functor_over_base_by_functors(rb, conv1, conv2, move_conv, "conv-transport-", p_square)
    endo_map = functor_over_base_by_functors(rb, endo1, endo2, move_endo, "endo-transport-", q_square)
    conv1_total, conv2_total = conv_map.source, conv_map.target
    endo1_objects = {key: y for y, key in enumerate(endo_map.source.objects)}
    endo1_arrows = {key: a for a, key in enumerate(endo_map.source.arrows)}
    endo2_objects = {key: y for y, key in enumerate(endo_map.target.objects)}
    endo2_arrows = {key: a for a, key in enumerate(endo_map.target.arrows)}

    def image(table, y):  # table[y] for an id y; None for an image outside the target
        return table[y] if type(y) is int else None

    extended = [fib._extended(ss, key) for key in conv1_total.objects]
    moved = [fib._extended(ss2, conv2_total.objects[y] if type(y) is int else y) for y in conv_map.obj]
    for x, key in enumerate(conv1_total.objects):
        lhs = image(endo_map.obj, endo1_objects.get(extended[x]))
        require(rb, lhs == endo2_objects.get(moved[x], moved[x]), "intertwine-objects", key)
    src = conv1_total.tables
    for f, key in enumerate(conv1_total.arrows):
        over, x, y = key[0], src.s[f], src.t[f]
        lhs = image(endo_map.arr, endo1_arrows.get((over, extended[x][1], extended[y][1])))
        rhs = (over, moved[x][1], moved[y][1])
        require(rb, lhs == endo2_arrows.get(rhs, rhs), "intertwine-arrows", key)
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
                if square_holds(hat.plan, beta.plan, hat.table, beta.table, phi, psi)
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


def feistel_by_loops(group: MonoidTable, round_fns) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Feistel permutation of a checked schedule over the group, and its inverse: each round applied
    to the whole table of states, forwards, then backwards through the pointwise inverses."""
    n, table, inv = group.size, group.table, group.inverse_table()
    states = n * n
    perm = list(range(states))
    for fn in round_fns:
        for s in range(states):
            l, r = divmod(perm[s], n)
            perm[s] = table[fn[l] * n + r] * n + l
    inv_perm = list(range(states))
    for fn in reversed(round_fns):
        for s in range(states):
            a, b = divmod(inv_perm[s], n)
            inv_perm[s] = b * n + table[inv[fn[b]] * n + a]
    return tuple(perm), tuple(inv_perm)
