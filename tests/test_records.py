import pytest

from balwords.balance import BarWitness, ImbalanceWitness, PrefixNormalWitness, RotationWitness, bar_witness
from balwords.christoffel import ChristoffelMatrix, Factorization
from balwords.counting import CountReport, CountTerm
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
