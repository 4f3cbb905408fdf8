"""Fuzz the CLI input boundary: bad strings and group files never give a traceback.

Entries come from a fixed token set, shapes stay within 3 x 3 and schedule
values stay at or above 0.1, so every example runs in milliseconds.  Most
draws are well formed, so the success paths get exercised as well as the
error paths.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from flatorb.cli import main

NUMBERS = ["0", "1", "-1", "2", "1/2", "0.5"]
TOKENS = NUMBERS + ["a", "", "nan", "inf", "1e300"]
SCHEDULE = ["2", "1", "0.5", "0.3", "0.2", "0.1"]
FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# numbers twice as often as arbitrary tokens
entry = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(NUMBERS), st.sampled_from(TOKENS))


@st.composite
def shape(draw, n, max_rows=3):
    """Row lengths: n x n mostly, now and then one row or column off."""
    rows = draw(st.sampled_from([n] * 4 + [max(1, n - 1), n + 1]))
    return [draw(st.sampled_from([n] * 6 + [max(1, n - 1), n + 1])) for _ in range(min(rows, max_rows + 1))]


@st.composite
def matrix_text(draw, n=None, rows=None):
    n = n or draw(st.integers(1, 3))
    lengths = [n] * rows if rows else draw(shape(n))
    return ";".join(",".join(draw(entry) for _ in range(k)) for k in lengths)


schedule_text = st.one_of(
    st.lists(st.sampled_from(SCHEDULE), min_size=3, max_size=5, unique=True).map(
        lambda xs: ",".join(sorted(xs, key=float, reverse=True))
    ),
    st.lists(st.sampled_from(SCHEDULE + ["a", "", "nan", "inf"]), max_size=5).map(",".join),
)


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def check(argv) -> None:
    code, err = run_cli(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@FUZZ
@given(matrix_text())
def test_fuzz_reduce_lattice(text):
    check(["reduce-lattice", "--", text])


@FUZZ
@given(st.data())
def test_fuzz_limit_seq(data):
    n = data.draw(st.integers(1, 3))
    lattice = data.draw(matrix_text(n))
    subspace = data.draw(matrix_text(n, rows=data.draw(st.integers(1, 2))))
    schedule = data.draw(schedule_text)
    check(["limit-seq", "--lattice", lattice, "--subspace", subspace, "--schedule", schedule])


# int, p/q and float strings, irrational decimals among them, and a few bad ones
SUBSPACE_ENTRIES = NUMBERS + ["-3/4", "0.1", "0.3333333333333333", "1.4142135623730951", "-2.23606797749979", "1e300", "1e400"]
COLLAPSE_GROUPS = {"G2": 3, "G3": 3, "B4": 3, "kummer": 4, "p4": 2, "torus-2": 2}
subspace_entry = st.one_of(st.sampled_from(SUBSPACE_ENTRIES), st.sampled_from(SUBSPACE_ENTRIES), st.sampled_from(TOKENS))


@FUZZ
@given(st.data())
def test_fuzz_collapse_subspace(data):
    key = data.draw(st.sampled_from(sorted(COLLAPSE_GROUPS)))
    lengths = data.draw(shape(COLLAPSE_GROUPS[key], max_rows=2))
    text = ";".join(",".join(data.draw(subspace_entry) for _ in range(k)) for k in lengths)
    code, err = run_cli(["collapse", "--catalog", key, "--subspace=" + text])
    event(f"exit {code}")
    assert code in (0, 1), (text, code, err)
    assert err.count("error:") <= 1 and "Traceback" not in err, (text, err)


json_entry = st.one_of(entry, st.sampled_from([0, 1, -1, 2, 0.5, 1e300]))


def json_matrix(n):
    return st.lists(st.lists(json_entry, min_size=n, max_size=n + 1), min_size=n, max_size=n + 1)


@st.composite
def group_doc(draw):
    n = draw(st.integers(1, 3))
    doc = {"dimension": n if draw(st.integers(0, 3)) else draw(json_entry)}
    if draw(st.integers(0, 2)) == 0:
        doc["gram"] = draw(json_matrix(n))
    generators = []
    for _ in range(draw(st.integers(0, 2))):
        gen = {}
        if draw(st.integers(0, 3)):
            # signed permutation matrices keep many examples valid groups
            perm = draw(st.permutations(range(n)))
            signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
            gen["linear"] = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
        else:
            gen["linear"] = draw(json_matrix(n))
        if draw(st.integers(0, 5)):
            coordinate = st.one_of(st.sampled_from(["0", "1/2", 0]), json_entry)
            gen["translation"] = draw(st.lists(coordinate, min_size=n, max_size=n + 1))
        generators.append(gen)
    doc["generators"] = generators
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]  # truncated JSON
    return text


@FUZZ
@given(group_doc())
def test_fuzz_analyze_group_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "group.json"
    path.write_text(text)
    check(["analyze", "--group", str(path)])
