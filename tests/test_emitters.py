"""Report emission: matrices stay arrays in the payload and are written
straight from them, byte for byte as the recursive reference emitters in
``reference_emitters`` write their per-entry layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_sl2 import cli
from reference_emitters import csv_text, json_text

FLOATS = st.floats()  # NaN, both infinities, subnormals and huge values included
COMPLEX = st.builds(complex, FLOATS, FLOATS)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10**9, 10**9), FLOATS, COMPLEX,
                    st.text(max_size=6))
MATRICES = st.integers(0, 4).flatmap(
    lambda d: st.lists(COMPLEX, min_size=d * d, max_size=d * d).map(
        lambda v: np.array(v, dtype=complex).reshape(d, d)))
KEYS = st.text(min_size=1, max_size=6)
TREES = st.recursive(SCALARS | MATRICES,
                     lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
                     max_leaves=12)
PAYLOADS = st.one_of(
    st.dictionaries(KEYS, TREES, max_size=5),
    # the table layout of sweep reports: one CSV row per dict
    st.builds(lambda rows, rest: {**rest, "rows": rows},
              st.lists(st.dictionaries(KEYS, SCALARS, max_size=4), min_size=1, max_size=4),
              st.dictionaries(KEYS, SCALARS, max_size=3)),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(PAYLOADS)
def test_both_formats_match_the_recursive_reference_byte_for_byte(payload):
    assert cli._render(payload, "json") == json_text(payload)
    assert cli._render(payload, "csv") == csv_text(payload)


def test_non_finite_matrix_entries_are_the_json_strings():
    m = np.array([[complex(np.nan, 1.0), complex(np.inf, -np.inf)], [0.0, -0.0]])
    assert cli._render({"M": m}, "json") == (
        '{"M": {"dim": 2, "entries": [["NaN", 1.0], ["Infinity", "-Infinity"], '
        '[0.0, 0.0], [-0.0, 0.0]]}}\n')
    assert cli._render({"M": m}, "csv").splitlines()[1:4] == [
        "M.dim,2", "M.entries[0][0],NaN", "M.entries[0][1],1"]


@pytest.mark.parametrize("argv", [
    ["hopf", "delta", "--which", "2", "--j1", "2", "--j2", "2", "--h", "0.45", "--k", "0.7",
     "--format", "csv"],
    ["deform", "build", "--j", "5", "--h", "0.45", "--k", "0.7", "--format", "json"],
    ["deform", "build", "--j", "5", "--h", "0.45", "--k", "0.7", "--format", "csv"],
    ["rep", "build", "--j", "2.5", "--format", "json"],
    ["rep", "build", "--j", "2.5", "--format", "csv"],
])
def test_matrix_reports_match_the_reference_emitter(argv, capsys):
    args = cli.build_parser().parse_args(argv)
    code, payload = args.fn(args)
    assert code == 0
    assert sum(isinstance(v, np.ndarray) for v in payload.values()) == 3
    reference = json_text(payload) if args.format == "json" else csv_text(payload)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == reference
