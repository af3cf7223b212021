"""The result types are immutable NamedTuples: fields are read-only,
updates go through ``_replace``, and the two checked types still refuse
bad fields at construction."""

import pickle

import pytest
from mpmath import mp, mpc, mpf

from zetakit.errors import RangeError
from zetakit.laurent import LaurentExpansion
from zetakit.mobius import MobiusTable, sieve_mobius
from zetakit.precision import PrecisionContext
from zetakit.series import PartialSumSeries, build_partial_series
from zetakit.stieltjes import StieltjesTable
from zetakit.zeros import STATUS_REFINED, STATUS_SIMPLE, CountReport, ZeroRecord
from zetakit.zeta import ZetaValue, zeta

CTX = PrecisionContext.from_digits(15)


def _instances():
    with CTX.wp():
        return [
            CTX,
            sieve_mobius(30),
            ZeroRecord(1, mpf(14), mpc(0.5, 14), mpf(1), 0, STATUS_REFINED),
            CountReport(mpf(20), 1, 1, mpf(1), 1, mpf(1), False),
            zeta(2, CTX),
            LaurentExpansion(mpc(0.5, 14), mpc(1), (mpc(1), mpc(2)), mpf(1) / 8, ()),
            build_partial_series((10, 100), [mpf(1), mpf(2)]),
            StieltjesTable(1, (mpf(1), mpf(2)), (mpf(3),)),
        ]


TYPES = [PrecisionContext, MobiusTable, ZeroRecord, CountReport, ZetaValue,
         LaurentExpansion, PartialSumSeries, StieltjesTable]


@pytest.mark.parametrize("index", range(len(TYPES)), ids=[t.__name__ for t in TYPES])
def test_result_fields_are_read_only(index):
    obj = _instances()[index]
    assert type(obj) is TYPES[index] and isinstance(obj, tuple)
    for name in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_checked_types_still_refuse_bad_fields():
    with pytest.raises(RangeError):
        PrecisionContext(63, 10)
    with pytest.raises(RangeError):
        PrecisionContext(64, 0)
    with pytest.raises(RangeError):
        PrecisionContext(bits=64, target_digits=20)
    with pytest.raises(ValueError):
        PartialSumSeries((100, 10), (mpf(1), mpf(2)), (mpf(1), mpf(2)), mpf(0))
    with pytest.raises(ValueError):
        PartialSumSeries((10, 100), (mpf(1),), (mpf(1), mpf(2)), mpf(0))


def test_pickling_rebuilds_through_the_checked_constructor():
    # Worker processes receive contexts and return records by pickle.
    for obj in _instances():
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj


def test_updates_copy_through_replace():
    with CTX.wp():
        rec = ZeroRecord(1, mpf(14), mpc(0.5, 14), mpf(1), 0, STATUS_REFINED)
        done = rec._replace(winding=1, status=STATUS_SIMPLE)
        exp = LaurentExpansion(mpc(0.5, 14), mpc(1), (mpc(1), mpc(2), mpc(3)), mpf(1) / 8, (mpc(4),))
    assert rec.status == STATUS_REFINED and (done.winding, done.status) == (1, STATUS_SIMPLE)
    assert done[:4] == rec[:4]
    cut = exp.truncated(1)
    assert type(cut) is LaurentExpansion
    assert (cut.coeffs, cut.tail, cut.n_terms) == ((mpc(1),), (mpc(2), mpc(3), mpc(4)), 1)
    assert exp.n_terms == 3
    with pytest.raises(RangeError):
        exp.truncated(4)


def test_zeta_value_unpacks_like_a_tuple():
    value, method, digits = zeta(2, CTX)
    with mp.workdps(20):
        assert abs(value - mp.pi**2 / 6) < mpf(10) ** -14
    assert digits == CTX.target_digits and method
