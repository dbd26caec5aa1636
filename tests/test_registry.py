from collections import OrderedDict

import pytest

from conftest import assert_interval_close, nested_transform
from ivowa import sampling
from ivowa.intervals import AdmissibleOrder, Interval
from ivowa.iv_overlaps import (
    IDENTITY,
    SQRT,
    SQUARE,
    Migrative,
    Opaque,
    Representable,
    representable,
)
from ivowa.overlaps import builtin_overlaps
from ivowa.registry import (
    MAX_ID_DEPTH,
    RegistryError,
    generator_catalog,
    resolve_aggregator,
    resolve_generator,
    resolve_iv_overlap,
    resolve_order,
    resolve_real_overlap,
    standard_overlaps,
)


class TestIdGrammar:
    def test_plain_ids(self):
        assert isinstance(resolve_iv_overlap("product").provenance, Migrative)
        assert isinstance(resolve_iv_overlap("midpoint").provenance, Opaque)

    def test_representable_ids(self):
        op = resolve_iv_overlap("rep(product,min)")
        assert isinstance(op.provenance, Representable)
        assert op.name == "rep(product,min)"

    def test_generator_ids(self):
        op = resolve_iv_overlap("mig(sqrt)")
        got = op(Interval(1, 1), Interval(0.25, 0.25))
        assert got == Interval(0.5, 0.5)

    def test_product_and_mig_identity_share_one_generator(self):
        generator = resolve_iv_overlap("product").provenance.generator
        assert generator is resolve_generator("identity")
        assert resolve_iv_overlap("mig(identity)").provenance.generator is generator

    def test_equal_specs_share_one_operator(self, monkeypatch):
        # A memo of its own, so no entry this test reads can have been evicted.
        monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
        cat = builtin_overlaps()
        op = representable(cat["product"], cat["min"])
        assert resolve_iv_overlap("rep(product,min)") is op
        assert standard_overlaps()["rep(product,min)"] is op
        assert resolve_iv_overlap("pow(rep(product,min),n=2)").name == "pow(rep(product,min),n=2)"
        assert resolve_iv_overlap("pow(rep(product,min),n=2)") is \
            resolve_iv_overlap(" pow(rep(product, min), n=2) ")

    def test_the_real_catalog_is_built_once(self):
        # One catalog, so an operator built from its entries by hand is the
        # memo entry that the id resolves to.
        assert builtin_overlaps()["product"] is builtin_overlaps()["product"]
        assert representable(builtin_overlaps()["product"], builtin_overlaps()["min"]) is \
            resolve_iv_overlap("rep(product,min)")
        assert resolve_real_overlap("min") is builtin_overlaps()["min"]

    def test_generator_catalog_holds_the_module_generators(self):
        assert generator_catalog() == {"identity": IDENTITY, "sqrt": SQRT, "square": SQUARE}

    def test_canonical_ids(self):
        op = resolve_iv_overlap("canonical(K=[1,2])")
        assert op.name == "canonical(K=[1.0,2.0])"

    def test_nested_transform_ids(self):
        op = resolve_iv_overlap("pow(rep(product,product),n=2)")
        half = Interval(0.5, 0.5)
        assert_interval_close(op(half, half), 0.0625, 0.0625)
        rooted = resolve_iv_overlap("root(product,n=2)")
        assert_interval_close(rooted(half, half), 0.5, 0.5)

    def test_ids_nest_up_to_the_depth_limit(self, monkeypatch):
        # A memo of its own: each level is one more memoized construction.
        monkeypatch.setattr(sampling, "_MEMO", OrderedDict())
        op = resolve_iv_overlap(nested_transform("root", MAX_ID_DEPTH))
        half = Interval(0.5, 0.5)
        want = 0.5 ** (2.0 ** (1 - MAX_ID_DEPTH))
        assert_interval_close(op(half, half), want, want)
        with pytest.raises(RegistryError, match=f"nests {MAX_ID_DEPTH + 1} levels deep"):
            resolve_iv_overlap(nested_transform("root", MAX_ID_DEPTH + 1))

    @pytest.mark.parametrize("bad", [
        "nope", "rep(product)", "rep(product,nope)", "mig(cosine)",
        "canonical(K=[2,1])", "canonical(K=1)", "pow(product,n=x)",
        "pow(product)", "",
    ])
    def test_malformed_ids_rejected(self, bad):
        with pytest.raises(RegistryError):
            resolve_iv_overlap(bad)

    @pytest.mark.parametrize("bad, message", [
        ("rep(a)(b)", "rep(...) takes two real overlap ids, got 'rep(a)(b)'"),
        ("rep (product,min)", "unknown interval overlap id 'rep (product,min)'"),
        ("pow(product,n=2))", "malformed transform degree 'n=2)'"),
        ("(x)", "unknown interval overlap id '(x)'"),
        ("rep(product,min)x", "unknown interval overlap id 'rep(product,min)x'"),
    ])
    def test_malformed_id_messages(self, bad, message):
        # An id's head is the text before its first "(", and the call must
        # close at the id's last character.
        with pytest.raises(RegistryError) as caught:
            resolve_iv_overlap(bad)
        assert str(caught.value) == message

    def test_real_and_order_and_aggregator_lookup(self):
        assert resolve_real_overlap("minmax:p=2").name == "minmax:p=2"
        assert resolve_order("xuyager") is AdmissibleOrder.XU_YAGER
        agg = resolve_aggregator("geomean", 3)
        assert agg.arity == 3
        with pytest.raises(RegistryError):
            resolve_real_overlap("nope")
        with pytest.raises(RegistryError):
            resolve_order("alphabetical")
        with pytest.raises(RegistryError):
            resolve_aggregator("median", 2)

    def test_aggregator_catalog_is_order_free(self):
        lex = resolve_aggregator("tsum", 3, AdmissibleOrder.LEX1)
        assert lex is resolve_aggregator("tsum", 3, AdmissibleOrder.XU_YAGER)

    def test_standard_catalog_contents(self):
        names = set(standard_overlaps())
        assert {"product", "midpoint", "rep(product,product)", "mig(sqrt)",
                "canonical(K=[1.0,2.0])"} <= names
