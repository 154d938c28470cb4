"""Every exponential enumeration goes through internal.budget: each call site refuses past the cap."""

import re
from pathlib import Path

import pytest

from spanforge import (
    FinSet,
    MalformedTables,
    SizeLimitExceeded,
    SubSlice,
    TwoCell,
    build_endo_fibration,
    check_internal_category,
    conv_fibre,
    conv_unit,
    external_category,
    full_subslice,
    hom_functor_data,
    identity,
    identity_functor_data,
    kleisli_fibre,
    kleisli_inverse,
    kleisli_unit,
    toffoli_extend,
    verify_adjunction,
)
from spanforge.catalog import MONOIDS, one_object_category, pair_groupoid
from spanforge.cli import build_parser

from suites import point_base

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

Z2 = one_object_category(MONOIDS["z2"])
AND2 = one_object_category(MONOIDS["and2"])


def z2_point(size):
    return point_base(Z2, size)


def conv_table(*argv):
    args = build_parser().parse_args(["conv-table", str(FIXTURES / "z2_internal.json"), *argv])
    return args.func(args)


def lone_object_subslice(fa):
    return SubSlice(Z2, (fa,), (TwoCell(fa.span, fa.span, identity(fa.a)),))


# (call, what the refusal names); each call passes the cap of 16 at exactly one site
SITES = {
    "conv_fibre": (lambda: conv_fibre(z2_point(5), Z2), "32 fibre elements"),
    "kleisli_fibre": (lambda: kleisli_fibre(z2_point(3), Z2), "216 free-module endomorphisms"),
    "verify_adjunction": (
        lambda: verify_adjunction([conv_unit(z2_point(3), Z2)], [kleisli_unit(z2_point(2), Z2)]),
        "8^2 candidate morphisms",
    ),
    "external_category objects": (
        lambda: external_category(pair_groupoid(2).cat, FinSet(5)),
        "2^5 external-category objects",
    ),
    "external_category arrows": (
        lambda: external_category(AND2, FinSet(5)),
        "2^5 external-category arrows",
    ),
    "external_category composites": (
        lambda: external_category(AND2, FinSet(3)),
        "8^2 external-category composites",
    ),
    "toffoli": (lambda: toffoli_extend(1, 4, (0, 0)), "2^5 Toffoli states"),
    "conv-table": (lambda: conv_table("--slice", "3", "0,0,0"), "8^2 conv-table products"),
    "full_subslice": (lambda: full_subslice(Z2, [z2_point(3), z2_point(4)]), "3^3 slice cells"),
    "hom_functor_data": (
        lambda: hom_functor_data(FinSet(3), [FinSet(4)], []),
        "4^3 hom-functor images",
    ),
    "build_endo_fibration": (
        lambda: build_endo_fibration(lone_object_subslice(z2_point(3))),
        "8x8 endomorphism pairs",
    ),
}


@pytest.mark.parametrize("site", list(SITES))
def test_every_site_refuses_past_the_cap(site, monkeypatch):
    call, what = SITES[site]
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", "16")
    message = f"enumeration of {what} exceeds cap 16"
    with pytest.raises(SizeLimitExceeded, match=f"^{re.escape(message)}$"):
        call()


def test_cached_fibre_is_refused_after_the_cap_is_lowered(monkeypatch):
    fa = z2_point(3)
    assert len(conv_fibre(fa, Z2)) == 8  # built, its elements memoised, under the default cap
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", "4")
    with pytest.raises(SizeLimitExceeded, match="^enumeration of 8 fibre elements exceeds cap 4$"):
        conv_fibre(fa, Z2)
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", "8")
    assert len(conv_fibre(fa, Z2)) == 8


@pytest.mark.parametrize("raw", ["-5", "abc", ""])
def test_malformed_cap_is_refused(raw, monkeypatch):
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", raw)
    message = f"SPANFORGE_SIZE_CAP must be a non-negative int, got {raw!r}"
    with pytest.raises(MalformedTables, match=f"^{re.escape(message)}$"):
        conv_fibre(z2_point(1), Z2)


def test_polynomial_checks_run_under_any_cap(monkeypatch):
    """The loops over tables already built stay unbudgeted, as the README lists them."""
    fa = z2_point(2)
    monkeypatch.setenv("SPANFORGE_SIZE_CAP", "0")
    assert lone_object_subslice(fa).base_category.arrows == (0,)
    assert check_internal_category(Z2).passed
    identity_functor_data([Z2.o, Z2.m], [Z2.d, Z2.c, Z2.eta]).verify()
    unit = kleisli_unit(z2_point(3), Z2)
    assert kleisli_inverse(unit).cell.map == unit.cell.map
