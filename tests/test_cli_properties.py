"""main(argv) in-process on drawn flag values, non-finite and extreme ones
included: every run ends in a documented exit code with one strict JSON
document, and exit 0 is a pass with a finite worst residual."""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from elliptic_sl2 import cli

# st.floats() draws NaN, both infinities, subnormals and 1e308; the second
# strategy keeps plenty of draws where the verbs compute a report.
NUMBERS = st.floats() | st.floats(-2.0, 2.0)
# Spins stay small: the size of a module is a resource question, not a parse one.
SPINS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
                  st.floats(max_value=3.0), st.just(math.nan), st.just(math.inf))


def flag(name, value):
    return f"--{name}={value!r}"


def u_flag(re, im):
    return "--u=" + str(complex(re, im)).strip("()").replace("j", "i")


ARGV = st.one_of(
    st.builds(lambda k: ["elliptic", "K", flag("k", k)], NUMBERS),
    st.builds(lambda k, re, im: ["elliptic", "eval", flag("k", k), u_flag(re, im)],
              NUMBERS, NUMBERS, NUMBERS),
    st.builds(lambda k: ["elliptic", "periods", flag("k", k)], NUMBERS),
    st.builds(lambda j, h, k: ["deform", "verify", flag("j", j), flag("h", h), flag("k", k)],
              SPINS, NUMBERS, NUMBERS),
    st.builds(lambda j, h, k: ["auto", "shift", "--which", "sign",
                               flag("j", j), flag("h", h), flag("k", k)],
              SPINS, NUMBERS, NUMBERS),
)


def refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(ARGV)
def test_main_ends_in_a_documented_exit_with_one_strict_json_document(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
    report, other = (out, err) if code in (0, 1) else (err, out)
    assert other.getvalue() == ""
    payload = json.loads(report.getvalue(), parse_constant=refuse)
    if argv[0] in ("deform", "auto") and code in (0, 1):
        assert payload["pass"] is (code == 0)
        if code == 0:
            assert isinstance(payload["worst"], float) and math.isfinite(payload["worst"])
