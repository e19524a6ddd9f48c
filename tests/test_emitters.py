"""Report emission: matrices stay arrays in the payload and are written
straight from them, byte for byte as the recursive reference emitters in
``reference_emitters`` write their per-entry layout."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_sl2 import cli
from elliptic_sl2.deform import DeformParams, build_elliptic_triplet
from elliptic_sl2.liealg import build_spin
from reference_emitters import csv_text, json_text


def _render(payload, fmt):
    """The document text that cli._emit writes for a payload."""
    buf = io.StringIO()
    cli._emit(payload, fmt, buf)
    return buf.getvalue()

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

# Parts that a random draw rarely gives: NaN, the infinities, subnormals, the
# largest double, and values whose 17-digit text ends in an exponent.
SPECIAL = np.array([np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1.7976931348623157e308,
                    -1e16, 1e-5, 0.1, 2.0**53 + 2])


def _matrix(d, dtype, zero_share, seed):
    """A d x d matrix whose real parts (and imaginary parts, for a complex
    dtype) are random doubles of any magnitude, some of them SPECIAL, and at
    ``zero_share`` 0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    n = d * d * (2 if dtype is complex else 1)
    parts = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n)
    parts = np.where(rng.random(n) < 0.1, rng.choice(SPECIAL, n), parts)
    parts = np.where(rng.random(n) < zero_share, np.copysign(0.0, rng.random(n) - 0.5), parts)
    return parts.view(dtype).reshape(d, d)


SEEDS = st.integers(0, 2**32 - 1)
FLOAT_MATRICES = st.builds(_matrix, st.integers(0, 4), st.just(float), st.just(0.0), SEEDS)
MOSTLY_ZERO = st.builds(_matrix, st.integers(1, 12), st.sampled_from([float, complex]),
                        st.just(0.85), SEEDS)
# Keys with a comma, a quote or a line break, which csv.writer quotes.
QUOTED_KEYS = st.sampled_from([",", "a,b", '"', 'say "hi"', "two\nlines", "cr\r", '","', " , "])
MATRIX_KEYS = KEYS | QUOTED_KEYS
# float64 and mostly-zero matrices under plain and quoted keys, one level
# deep and two, between float rows
MATRIX_PAYLOADS = st.dictionaries(
    MATRIX_KEYS,
    FLOATS | FLOAT_MATRICES | MOSTLY_ZERO
    | st.dictionaries(MATRIX_KEYS, FLOAT_MATRICES | MOSTLY_ZERO, min_size=1, max_size=2),
    min_size=1, max_size=4)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(PAYLOADS)
def test_both_formats_match_the_recursive_reference_byte_for_byte(payload):
    assert _render(payload, "json") == json_text(payload)
    assert _render(payload, "csv") == csv_text(payload)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(MATRIX_PAYLOADS)
def test_real_mostly_zero_and_quoted_key_matrices_match_the_reference(payload):
    assert _render(payload, "json") == json_text(payload)
    assert _render(payload, "csv") == csv_text(payload)


def test_non_finite_matrix_entries_are_the_json_strings():
    m = np.array([[complex(np.nan, 1.0), complex(np.inf, -np.inf)], [0.0, -0.0]])
    assert _render({"M": m}, "json") == (
        '{"M": {"dim": 2, "entries": [["NaN", 1.0], ["Infinity", "-Infinity"], '
        '[0.0, 0.0], [-0.0, 0.0]]}}\n')
    assert _render({"M": m}, "csv").splitlines()[1:4] == [
        "M.dim,2", "M.entries[0][0],NaN", "M.entries[0][1],1"]


def _hopf_delta(which, j):
    return ["hopf", "delta", "--which", which, "--j1", j, "--j2", j, "--h", "0.45", "--k", "0.7",
            "--format", "csv"]


# The CLI reads --h as a real number, so this payload is built by the library
# at the complex h, whose matrices have nonzero imaginary parts.
COMPLEX_H = ["deform", "build", "--j", "5", "--h", "0.5+0.2i", "--k", "0.6", "--format", "csv"]


@pytest.mark.parametrize("argv", [
    _hopf_delta("2", "2"),
    ["deform", "build", "--j", "5", "--h", "0.45", "--k", "0.7", "--format", "json"],
    ["deform", "build", "--j", "5", "--h", "0.45", "--k", "0.7", "--format", "csv"],
    ["rep", "build", "--j", "2.5", "--format", "json"],
    ["rep", "build", "--j", "2.5", "--format", "csv"],
    _hopf_delta("1", "3"), _hopf_delta("uh", "3"), _hopf_delta("2", "3"),
    COMPLEX_H,
])
def test_matrix_reports_match_the_reference_emitter(argv, tmp_path, capsys, monkeypatch):
    """stdout, the --out file and _emit write the reference's bytes."""
    if argv is COMPLEX_H:
        t = build_elliptic_triplet(build_spin(5.0), DeformParams(h=0.5 + 0.2j, k=0.6))
        monkeypatch.setattr(cli, "_build_triplet", lambda args: t)
    args = cli.build_parser().parse_args(argv)
    code, payload = args.fn(args)
    assert code == 0
    assert sum(isinstance(v, np.ndarray) for v in payload.values()) == 3
    reference = json_text(payload) if args.format == "json" else csv_text(payload)
    assert _render(payload, args.format) == reference
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == reference
    out = tmp_path / "report"
    cli._write_payload(payload, args.format, str(out))
    assert out.read_bytes() == reference.encode("utf-8")
