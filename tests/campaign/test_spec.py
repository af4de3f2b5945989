"""Campaign specs: DAG validation, digests, the paper/smoke schedules."""

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    CampaignUnit,
    SPEC_NAMES,
    get_spec,
)
from repro.errors import CampaignError


class TestValidation:
    def test_duplicate_unit_ids_rejected(self):
        u = CampaignUnit(id="a", kind="static", table="table1")
        with pytest.raises(CampaignError):
            CampaignSpec("x", (u, u))

    def test_forward_dependency_rejected(self):
        late = CampaignUnit(id="late", kind="static", table="table1")
        early = CampaignUnit(
            id="early", kind="render", table="table2", deps=("late",)
        )
        with pytest.raises(CampaignError):
            CampaignSpec("x", (early, late))

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignError):
            CampaignUnit(id="a", kind="dance")

    def test_unknown_unit_lookup(self):
        with pytest.raises(CampaignError):
            get_spec("smoke").unit("nope")

    def test_unknown_spec_name(self):
        with pytest.raises(CampaignError):
            get_spec("nope")


class TestDigest:
    def test_digest_is_stable(self):
        assert get_spec("paper").digest() == get_spec("paper").digest()

    def test_digest_distinguishes_specs(self):
        assert get_spec("paper").digest() != get_spec("smoke").digest()


class TestSchedules:
    def test_spec_names(self):
        assert SPEC_NAMES == ("paper", "smoke")

    def test_spec_names_match_builders(self):
        # The parser offers repro.names.SPEC_NAMES without importing
        # this package, so the tuple and the builders must agree.
        from repro.campaign.spec import _SPECS

        assert SPEC_NAMES == tuple(sorted(_SPECS))

    def test_smoke_spec_shape(self):
        spec = get_spec("smoke")
        assert [u.id for u in spec.execution_order()] == [
            "table3:aurora",
            "table3:dawn",
            "table3:render",
            "campaign:summary",
        ]
        assert spec.systems() == ["aurora", "dawn"]

    def test_paper_spec_covers_every_artifact(self):
        spec = get_spec("paper")
        artifacts = {u.artifact for u in spec.units if u.artifact}
        assert artifacts == {
            "table1.txt",
            "table2.txt",
            "table3.txt",
            "table4.txt",
            "table5.txt",
            "table6.txt",
            "fig1.txt",
            "fig2.txt",
            "fig3.txt",
            "fig4.txt",
            "summary.txt",
        }

    def test_paper_spec_measures_all_four_systems(self):
        assert get_spec("paper").systems() == [
            "aurora",
            "dawn",
            "jlse-h100",
            "jlse-mi250",
        ]

    def test_deps_precede_units(self):
        for spec_name in SPEC_NAMES:
            seen = set()
            for unit in get_spec(spec_name).execution_order():
                assert all(d in seen for d in unit.deps)
                seen.add(unit.id)
