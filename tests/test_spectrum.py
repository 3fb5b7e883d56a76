import numpy as np
import pytest

from alphabug import Spectrum, SpectrumEntry
from alphabug.spectrum import CLOSED_FORM, DENSE, QUOTIENT


def test_entry_validation():
    with pytest.raises(ValueError):
        SpectrumEntry(float("nan"), 1, QUOTIENT)
    with pytest.raises(ValueError):
        SpectrumEntry(1.0, 0, QUOTIENT)
    with pytest.raises(ValueError):
        SpectrumEntry(1.0, 1, "")
    for bad in ("1.0", True, None):
        with pytest.raises(ValueError, match="^eigenvalue must"):
            SpectrumEntry(bad, 1, QUOTIENT)
    for bad in (1.5, True, np.True_, "2", None):
        with pytest.raises(ValueError, match="^multiplicity must"):
            SpectrumEntry(1.0, bad, QUOTIENT)
    # the checked float and int are kept
    assert type(SpectrumEntry(np.float64(1.0), 1, QUOTIENT).value) is float
    entry = SpectrumEntry(1.0, 2.0, QUOTIENT)
    assert type(entry.multiplicity) is int and entry.multiplicity == 2


def test_entries_must_increase_strictly():
    good = Spectrum((SpectrumEntry(0.0, 1, QUOTIENT), SpectrumEntry(1.0, 2, QUOTIENT)))
    assert good.order == 3
    with pytest.raises(ValueError):
        Spectrum((SpectrumEntry(1.0, 1, QUOTIENT), SpectrumEntry(0.0, 1, QUOTIENT)))
    with pytest.raises(ValueError):
        Spectrum(())


def test_from_entries_sorts_and_merges():
    s = Spectrum.from_entries(
        [
            SpectrumEntry(2.0, 1, QUOTIENT),
            SpectrumEntry(-1.0, 3, CLOSED_FORM),
            SpectrumEntry(2.0, 2, CLOSED_FORM),
        ]
    )
    assert [e.value for e in s.entries] == [-1.0, 2.0]
    assert [e.multiplicity for e in s.entries] == [3, 3]
    assert s.entries[1].source == "closed-form+quotient"


def test_from_values_clusters_by_radius():
    vals = [1.0, 1.0 + 5e-9, 3.0]
    s = Spectrum.from_values(vals, DENSE, cluster_radius=1e-7)
    assert [e.multiplicity for e in s.entries] == [2, 1]
    assert s.entries[0].value == pytest.approx(1.0 + 2.5e-9, abs=1e-12)
    # radius zero keeps everything separate
    assert Spectrum.from_values(vals, DENSE, cluster_radius=0.0).order == 3
    assert len(Spectrum.from_values(vals, DENSE, cluster_radius=0.0).entries) == 3
    # NaN would pass a plain `< 0` test and merge every value into one entry
    for bad in (float("nan"), "0"):
        with pytest.raises(ValueError, match="^cluster_radius must"):
            Spectrum.from_values(vals, DENSE, cluster_radius=bad)


def test_expand_and_rho():
    s = Spectrum.from_entries(
        [SpectrumEntry(0.5, 2, CLOSED_FORM), SpectrumEntry(4.0, 1, QUOTIENT)]
    )
    assert np.array_equal(s.expand(), [0.5, 0.5, 4.0])
    assert s.rho == 4.0
    assert s.values().tolist() == [0.5, 4.0]


def test_with_source_filters_entries():
    s = Spectrum.from_entries(
        [SpectrumEntry(0.5, 2, CLOSED_FORM), SpectrumEntry(4.0, 1, QUOTIENT)]
    )
    assert s.with_source(QUOTIENT) == (SpectrumEntry(4.0, 1, QUOTIENT),)
    assert s.with_source(CLOSED_FORM)[0].multiplicity == 2
    assert s.with_source(DENSE) == ()
