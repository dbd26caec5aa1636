import pytest

from conftest import assert_interval_close
from ivowa.intervals import AdmissibleOrder, Interval
from ivowa.iv_overlaps import Migrative, Opaque, Representable
from ivowa.registry import (
    RegistryError,
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

    def test_canonical_ids(self):
        op = resolve_iv_overlap("canonical(K=[1,2])")
        assert op.name == "canonical(K=[1.0,2.0])"

    def test_nested_transform_ids(self):
        op = resolve_iv_overlap("pow(rep(product,product),n=2)")
        half = Interval(0.5, 0.5)
        assert_interval_close(op(half, half), 0.0625, 0.0625)
        rooted = resolve_iv_overlap("root(product,n=2)")
        assert_interval_close(rooted(half, half), 0.5, 0.5)

    @pytest.mark.parametrize("bad", [
        "nope", "rep(product)", "rep(product,nope)", "mig(cosine)",
        "canonical(K=[2,1])", "canonical(K=1)", "pow(product,n=x)",
        "pow(product)", "",
    ])
    def test_malformed_ids_rejected(self, bad):
        with pytest.raises(RegistryError):
            resolve_iv_overlap(bad)

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
