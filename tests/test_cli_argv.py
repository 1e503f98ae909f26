"""Property test of the CLI contract over generated argument vectors.

Every subcommand gets small moduli (at most 60), small degrees and
bounds, and values that are out of range, reversed or left out.  Whatever
the argv, main() must return one of the documented exit codes, must never
let an exception escape as a traceback, and must print nothing to stdout
when it returns the usage-error code.  A JSON verify, verify-all or
conjecture summary must count every row once, and the exit code must
follow from its counts alone.  A reversed --pmin/--pmax and a reversed
--qmin/--qmax range give the same one-line usage error.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expsumlab import cli, registry

SMALL = st.integers(-3, 60)
# range ends: low ends lean low and high ends high, so that most ranges
# hold enough primes to run while some are still empty or reversed
LOW = st.integers(-3, 30)
HIGH = st.integers(0, 60)
FORMATS = st.sampled_from(["json", "csv", "text"])
IDENTITIES = st.sampled_from([d.identity_id for d in registry.list_identities()] + ["nope"])


def arg(flag, values):
    return values.map(lambda v: [flag, str(v)])


def opt(flag, values):
    """Either nothing or [flag, value]."""
    return st.one_of(st.just([]), arg(flag, values))


def argv_of(command, *parts):
    return st.tuples(*parts, opt("--format", FORMATS), opt("--workers", st.sampled_from([0, 1, 2, 8]))).map(
        lambda ps: [command] + [tok for part in ps for tok in part]
    )


def pair(lo_flag, hi_flag):
    return st.tuples(arg(lo_flag, LOW), arg(hi_flag, HIGH)).map(lambda ab: ab[0] + ab[1])


VERIFY = argv_of(
    "verify",
    arg("--identity", IDENTITIES),
    # a modulus, a prime range, a modulus range, or (a usage error) none
    st.one_of(arg("--q", SMALL), pair("--pmin", "--pmax"), pair("--qmin", "--qmax"), st.just([])),
    st.lists(SMALL, max_size=2).map(lambda ns: [tok for n in ns for tok in ("--n", str(n))]),
)
VERIFY_ALL = argv_of("verify-all")
CONJECTURE = argv_of(
    "conjecture",
    arg("--k", st.integers(-1, 8)),
    pair("--pmin", "--pmax"),
)
SEARCH = argv_of(
    "search",
    opt("--max-degree", st.integers(-1, 3)),
    opt("--coeff-bound", st.integers(-1, 2)),
    opt("--prime-min", LOW),
    # the search needs 8 odd evidence primes, 3..23 at the least
    arg("--prime-max", st.integers(23, 60)),
    st.sampled_from([[], ["--twisted"]]),
)
SUM = argv_of(
    "sum",
    arg("--family", st.sampled_from(["kloosterman", "two-term", "twisted"])),
    arg("--m", SMALL),
    opt("--n", SMALL),
    opt("--k", st.integers(-2, 5)),
    arg("--q", SMALL),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(VERIFY, VERIFY_ALL, CONJECTURE, SEARCH, SUM))
def test_any_argv_exits_with_a_documented_code(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_USAGE, cli.EXIT_NUMERIC), argv
    assert "Traceback" not in err, argv
    # a usage error is found before any output is written
    assert code != cli.EXIT_USAGE or out == "", argv
    if argv[0] in ("verify", "verify-all", "conjecture") and code != cli.EXIT_USAGE:
        # the same run in JSON, whatever the format asked for: the same
        # exit code, every row counted once, and the code from the counts
        as_json = _with_json_format(argv)
        if as_json != argv:
            assert cli.main(as_json) == code, argv
            out = capsys.readouterr().out
        doc = json.loads(out)
        s = doc["summary"]
        assert s["pass"] + s["fail"] + s["skip"] == len(doc["rows"]), argv
        assert s["numeric"] == 0 and s["max_residual"] == 0.0, argv
        assert code == (cli.EXIT_FAIL if s["fail"] else cli.EXIT_OK), argv


def _with_json_format(argv):
    if "--format" not in argv:
        return argv + ["--format", "json"]
    i = argv.index("--format")
    return argv[:i + 1] + ["json"] + argv[i + 2:]


@pytest.mark.parametrize("lo_flag, hi_flag", [("--pmin", "--pmax"), ("--qmin", "--qmax")])
def test_reversed_ranges_share_one_usage_error(capsys, lo_flag, hi_flag):
    code = cli.main(["verify", "--identity", "salie_4th", lo_flag, "5", hi_flag, "3"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (cli.EXIT_USAGE, "", "empty range: lo=5 > hi=3\n")
