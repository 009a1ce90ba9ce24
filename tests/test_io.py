import io as _io
import json

import countmix.io as cmio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countmix import CountData, ParseError, fit_npmle
from countmix.io import read_counts, write_fit, write_report

# The JSON documents the CLI writes, as a validator reads them.
FIT_SCHEMA = {
    "type": "object",
    "required": [
        "v",
        "atoms",
        "weights",
        "log_likelihood",
        "optimality_gap",
        "iterations",
        "converged",
    ],
    "properties": {
        "v": {"const": 1},
        "atoms": {"type": "array", "items": {"type": "number"}},
        "weights": {"type": "array", "items": {"type": "number"}},
        "log_likelihood": {"type": "number"},
        "optimality_gap": {"type": "number", "minimum": 0},
        "iterations": {"type": "integer", "minimum": 0},
        "converged": {"type": "boolean"},
    },
}

REPORT_SCHEMAS = {
    "estimate": {
        "type": "object",
        "required": ["v", "type", "value", "method"],
        "properties": {
            "v": {"const": 1},
            "type": {"const": "estimate"},
            "value": {"type": "number"},
            "method": {"type": "string"},
            "converged": {"type": ["boolean", "null"]},
            "optimality_gap": {"type": ["number", "null"], "minimum": 0},
        },
    },
    "gof": {
        "type": "object",
        "required": ["v", "type", "statistic", "dof", "p_value", "expected", "truncation"],
        "properties": {
            "v": {"const": 1},
            "type": {"const": "gof"},
            "dof": {"type": "integer"},
            "p_value": {"type": "number", "minimum": 0, "maximum": 1},
            "expected": {"type": "array", "items": {"type": "number"}},
            "truncation": {"type": "integer"},
        },
    },
    "penalized": {
        "type": "object",
        "required": ["v", "type", "k_hat", "atoms", "weights", "penalized_objective", "profile"],
        "properties": {
            "v": {"const": 1},
            "type": {"const": "penalized"},
            "k_hat": {"type": "number"},
            "profile": {"type": "array"},
        },
    },
}


def parse(text):
    return read_counts(_io.StringIO(text))


def test_raw_mode_counts_verbatim():
    data = parse("#format=raw\n0\n0\n3\n")
    assert data.counts.tolist() == [0, 0, 3]
    assert data.n == 3  # defaults to the total count mass
    assert data.k == 3


def test_fingerprint_mode_expands():
    data = parse("#format=fingerprint\n#tail=94\n0,304\n1,118\n2,74\n")
    assert data.k == 304 + 118 + 74
    assert data.tail == 94
    assert data.n == 118 + 2 * 74
    assert int((data.counts == 0).sum()) == 304


def test_directives_override_defaults():
    data = parse("#format=raw\n#n=50\n#k=9\n1\n2\n")
    assert data.n == 50
    assert data.k == 9
    assert data.implicit_zeros == 7


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("#format=raw\n1\n-2\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse("#format=fingerprint\n1,2\n1,3\n")
    assert err.value.line == 3  # duplicate fingerprint value
    with pytest.raises(ParseError) as err:
        parse("#format=raw\nx\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse("#wat=1\n")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse("1\n")  # data before the format directive
    with pytest.raises(ParseError):
        parse("#format=raw\n0\n0\n")  # all-zero counts need an explicit n


def test_counts_beyond_int64_raise_parse_error():
    with pytest.raises(ParseError) as err:
        parse("#format=raw\n3\n99999999999999999999\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse("#format=fingerprint\n0,4\n99999999999999999999,2\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse("#format=fingerprint\n1,99999999999999999999\n")
    assert err.value.line == 2
    assert parse("#format=raw\n9223372036854775807\n").counts.tolist() == [2**63 - 1]


@pytest.mark.parametrize("key", ["k", "n", "tail"])
@pytest.mark.parametrize("value", ["99999999999999999999", "-99999999999999999999"])
def test_directive_beyond_int64_raises_parse_error_with_its_line(key, value):
    with pytest.raises(ParseError, match=f"#{key}=") as err:
        parse(f"#format=raw\n#{key}={value}\n3\n")
    assert err.value.line == 2


def test_count_sum_beyond_int64_needs_an_explicit_n():
    body = "9223372036854775807\n" * 2
    with pytest.raises(ParseError, match="#n must be given"):
        parse("#format=raw\n" + body)
    assert parse("#format=raw\n#n=5\n" + body).n == 5
    assert parse("#format=raw\n9223372036854775806\n1\n").n == 2**63 - 1
    with pytest.raises(ParseError, match="#n must be given"):
        parse("#format=raw\n" + "9223372036854775807\n" * 3)  # wraps to a positive sum


def test_bad_line_near_the_end_of_a_long_raw_file_keeps_its_number(tmp_path):
    lines = ["#format=raw"] + [str(i % 7) for i in range(200_000)]
    good = tmp_path / "good.txt"
    good.write_text("\n".join(lines) + "\n")
    assert read_counts(good).counts.tolist() == [i % 7 for i in range(200_000)]
    lines[199_990] = "x"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_counts(bad)
    assert err.value.line == 199_991
    assert str(err.value) == "line 199991: expected an integer count, got 'x'"


def outcome(text):
    """What read_counts makes of text: the parsed fields, or the error raised."""
    try:
        data = parse(text)
    except ValueError as exc:  # ParseError, or DomainError from CountData
        return type(exc), str(exc), getattr(exc, "line", None)
    return data.counts.tolist(), data.counts.dtype, data.n, data.k, data.tail


# Lines the fast path must leave to the line loop, or parse exactly as it does.
ODD_LINES = ["", "  ", "\t", " 5 ", "1 2", "3\x0c4", "\x0c", "+3", "1_000", "-1", "x",
             "12345678901234567890", "9223372036854775807", "#n=50", "#k=40", "#tail=2"]


@settings(max_examples=500, deadline=None)
@given(
    head=st.lists(st.sampled_from(["", "#n=60", "#k=50", " "]), max_size=2),
    body=st.lists(st.integers(min_value=0, max_value=10**6).map(str), max_size=10),
    odd=st.lists(st.tuples(st.integers(min_value=0), st.sampled_from(ODD_LINES)), max_size=3),
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
)
def test_raw_fast_path_matches_the_line_loop(head, body, odd, newline, final_newline):
    for position, line in odd:
        body.insert(position % (len(body) + 1), line)
    text = newline.join(["#format=raw"] + head + body) + (newline if final_newline else "")
    fast = outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cmio, "_raw_body", lambda body: None)
        loop = outcome(text)
    assert fast == loop


@settings(max_examples=50, deadline=None)
@given(
    phi=st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=30),
        min_size=1,
        max_size=8,
    ),
    fmt=st.sampled_from(["raw", "fingerprint"]),
)
def test_count_file_roundtrip(phi, fmt):
    counts = np.repeat(sorted(phi), [phi[j] for j in sorted(phi)])
    data = CountData(counts, n=max(int(counts.sum()), 1), tail=3)
    lines = [f"#format={fmt}", f"#n={data.n}", f"#k={data.k}", f"#tail={data.tail}"]
    if fmt == "raw":
        lines += [str(c) for c in counts]
    else:
        lines += [f"{j},{phi[j]}" for j in sorted(phi)]
    back = read_counts(_io.StringIO("\n".join(lines) + "\n"))
    assert back.counts.tolist() == data.counts.tolist()
    assert (back.n, back.k, back.tail) == (data.n, data.k, data.tail)


def test_fit_serialization_roundtrip_and_schema():
    jsonschema = pytest.importorskip("jsonschema")
    counts = CountData([1, 2, 2, 5], n=10)
    fit = fit_npmle(counts)
    text = write_fit(fit)
    doc = json.loads(text)
    jsonschema.validate(doc, FIT_SCHEMA)
    assert doc["atoms"] == fit.mixing.atoms.tolist()
    assert doc["weights"] == fit.mixing.weights.tolist()
    assert doc["log_likelihood"] == fit.log_likelihood
    assert doc["converged"] is True


def test_point_mass_fit_document():
    counts = CountData([0, 0], n=4)
    doc = json.loads(write_fit(fit_npmle(counts)))
    assert doc["atoms"] == [0.0]
    assert doc["weights"] == [1.0]
    assert doc["v"] == 1


def test_report_serialization_validates():
    jsonschema = pytest.importorskip("jsonschema")
    from countmix import FunctionalSpec, fit_penalized, gof_test
    from countmix.functionals import empirical_plugin

    counts = CountData([1, 1, 3, 0], n=5)
    est = empirical_plugin(counts, FunctionalSpec.entropy())
    doc = json.loads(write_report(est))
    jsonschema.validate(doc, REPORT_SCHEMAS["estimate"])

    gof = gof_test(counts, "p-model", T=3)
    doc = json.loads(write_report(gof))
    jsonschema.validate(doc, REPORT_SCHEMAS["gof"])

    penalized = fit_penalized(CountData([1, 1, 3], n=5))
    doc = json.loads(write_report(penalized))
    jsonschema.validate(doc, REPORT_SCHEMAS["penalized"])


def test_write_report_rejects_unknown_type():
    with pytest.raises(TypeError):
        write_report(42)
