from fractions import Fraction

import pytest

from balwords.balance import BarWitness, ImbalanceWitness, PrefixNormalWitness, RotationWitness, bar_witness
from balwords.christoffel import ChristoffelMatrix, Factorization
from balwords.counting import CountReport, CountTerm, count_balanced_report
from balwords.farey import PlcEntry, enumerate_plc, plc_farey_bijection
from balwords.forbidden import MFWord, enumerate_mf
from balwords.render import RenderSpec

# Positional construction (conftest's oracles build Factorization, CountTerm
# and the witnesses this way) relies on this field order.
FIELDS = [
    (ImbalanceWitness, ("v", "pos0", "pos1")),
    (RotationWitness, ("rotation", "offset")),
    (PrefixNormalWitness, ("factor", "position", "prefix")),
    (BarWitness, ("prefix_length", "height", "allowed")),
    (Factorization, ("left", "right", "kind")),
    (ChristoffelMatrix, ("a", "b", "rows")),
    (CountTerm, ("alpha", "beta", "kind", "n_value", "h_value", "contribution")),
    (CountReport, ("a", "b", "terms", "total")),
    (RenderSpec, ("word", "show_bar", "show_segment", "format", "cell_size")),
]


@pytest.mark.parametrize("record, fields", FIELDS, ids=[r.__name__ for r, _ in FIELDS])
def test_every_record_is_a_named_tuple_with_its_fields_in_order(record, fields):
    assert issubclass(record, tuple)
    assert record._fields == fields


def test_records_compare_equal_to_plain_tuples():
    assert RenderSpec("01") == ("01", False, False, "ascii", 20)
    assert bar_witness("000011") == (3, 0, (1, 1))


def test_list_built_records_have_their_exact_record_type():
    # Records made with tuple.__new__ skip their constructor, and == cannot
    # tell a record from the plain tuple of its fields, so check the types.
    for a in range(41):
        for b in range(41):
            for t in count_balanced_report(a, b).terms:
                assert type(t) is CountTerm and len(t) == len(CountTerm._fields)
                assert t.contribution == (t.h_value if t.kind == "heavy" else t.n_value - t.h_value)
    for n in range(1, 61):
        entries = [*enumerate_plc(n), *(e for e, _ in plc_farey_bijection(n))]
        for e in entries:
            assert type(e) is PlcEntry and len(e) == len(PlcEntry._fields)
            assert e.fraction == Fraction(e.root.count("1"), len(e.root))
    for n in range(2, 200):
        for m in enumerate_mf(n):
            assert type(m) is MFWord and len(m) == len(MFWord._fields)
            assert m.swap == (m.source[0], m.source[-1])
