import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qreflect.io import (
    DocumentError,
    DocumentParseError,
    DocumentShapeError,
    DocumentVersionError,
    MatrixDocument,
    ReportDocument,
    deserialize_matrix,
    serialize_matrix,
    serialize_report,
    serialize_scan,
)
from qreflect.checks import check_ybe
from qreflect.linalg import DEFAULT_REL_TOL, VerificationReport


def _doc(matrix=None):
    return MatrixDocument(
        kind="kmatrix",
        n=1,
        q=2.0 + 0j,
        matrix=np.eye(2) if matrix is None else matrix,
        convention="paper",
        x=[3.0 + 0j],
        eps=[1.0 + 0j, 1.0 + 0j],
        tol=1e-9,
    )


def test_identity_layout():
    payload = json.loads(serialize_matrix(_doc()))
    assert payload["matrix"]["rows"] == 2
    assert payload["matrix"]["data"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    assert payload["meta"]["schema_version"] == "1"
    assert payload["meta"]["convention"] == "paper"


def test_round_trip_is_byte_exact():
    raw = serialize_matrix(_doc(np.array([[1.25e-7 + 3j, -0.0], [1e300, 2.0 / 3.0]])))
    again = serialize_matrix(deserialize_matrix(raw))
    assert raw == again


# Finite floats with signed zeros, subnormals and entries near the overflow edge over-weighted.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, database=None, deadline=1000, max_examples=50)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), data=st.data())
def test_round_trip_of_random_matrices_is_bit_exact(rows, cols, data):
    parts = data.draw(st.lists(ENTRIES, min_size=2 * rows * cols, max_size=2 * rows * cols))
    entries = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
    matrix = np.array(entries).reshape(rows, cols)
    raw = serialize_matrix(_doc(matrix))
    doc = deserialize_matrix(raw)
    assert doc.matrix.tobytes() == matrix.tobytes()
    assert serialize_matrix(doc) == raw


def test_serialization_is_deterministic():
    assert serialize_matrix(_doc()) == serialize_matrix(_doc())


def test_non_finite_entries_rejected():
    with pytest.raises(DocumentError):
        _doc(np.array([[np.nan, 0], [0, 1]], dtype=complex))


def test_truncated_input_is_parse_error():
    raw = serialize_matrix(_doc())[:-30]
    with pytest.raises(DocumentParseError):
        deserialize_matrix(raw)


def test_wrong_version_rejected():
    payload = json.loads(serialize_matrix(_doc()))
    payload["meta"]["schema_version"] = "2"
    with pytest.raises(DocumentVersionError):
        deserialize_matrix(json.dumps(payload).encode())


def test_shape_mismatch_rejected():
    payload = json.loads(serialize_matrix(_doc()))
    payload["matrix"]["data"].append([0.0, 0.0])
    with pytest.raises(DocumentShapeError):
        deserialize_matrix(json.dumps(payload).encode())


def test_matrix_values_survive():
    m = np.array([[0.1 + 0.2j, -3.0], [5e-13j, 7.0]])
    doc = deserialize_matrix(serialize_matrix(_doc(m)))
    assert np.array_equal(doc.matrix, m)
    assert doc.q == 2.0 + 0j
    assert doc.eps == [1.0 + 0j, 1.0 + 0j]


def test_unknown_convention_rejected():
    with pytest.raises(DocumentError):
        MatrixDocument(kind="k", n=1, q=1.0, matrix=np.eye(2), convention="mystery")


def test_report_document_consistency_guard():
    good = VerificationReport("x", 1e-9, 1.0, 1e-8, True)
    bad = VerificationReport("x", 1e-9, 1.0, 1e-8, False)
    doc = ReportDocument(kind="verify", n=1, q=1.0, checks=[good], convention="n/a")
    payload = json.loads(serialize_report(doc))
    assert payload["checks"][0]["passed"] is True
    with pytest.raises(DocumentError):
        ReportDocument(kind="verify", n=1, q=1.0, checks=[bad], convention="n/a")


def test_scan_serialization_handles_tuples():
    raw = serialize_scan({"scan": "eps"}, [(1.0, -1.0), (0.0, 0.0)], [1, 1])
    payload = json.loads(raw)
    assert payload["grid"][0] == [[1.0, 0.0], [-1.0, 0.0]]
    assert payload["dims"] == [1, 1]


def test_default_tolerances_come_from_their_owners():
    doc = MatrixDocument(kind="smatrix", n=1, q=0.5, matrix=np.eye(2), convention="paper")
    assert doc.tol == DEFAULT_REL_TOL
    assert deserialize_matrix(serialize_matrix(doc)).tol == DEFAULT_REL_TOL  # written, then read
    report = ReportDocument(kind="verify", n=1, q=0.5, checks=[], convention="n/a")
    assert report.tol == inspect.signature(check_ybe).parameters["tol"].default


MISSING = object()

# Edits of a written document, each to a form the writer never produces: a key it always writes
# left out, a value of another JSON type, or a negative shape.  The reader used to fill in the
# missing kind, n, q and convention, read n = 2.7 as 2, "3" as 3 and true as 1, and hand -1 x -1
# to numpy's reshape.
MALFORMED_DOCUMENTS = {
    **{f"no-{key}": [("meta", key, MISSING)]
       for key in ("kind", "n", "q", "eps", "convention", "normalization", "tol")},
    "n-float": [("meta", "n", 2.7)],
    "n-integral-float": [("meta", "n", 1.0)],
    "n-string": [("meta", "n", "3")],
    "n-bool": [("meta", "n", True)],
    "kind-number": [("meta", "kind", 5)],
    "convention-null": [("meta", "convention", None)],
    "normalization-list": [("meta", "normalization", ["max-modulus-1"])],
    "q-number": [("meta", "q", 2.0)],
    "q-string-pair": [("meta", "q", ["2", "0"])],
    "q-bool-pair": [("meta", "q", [True, False])],
    "eps-string": [("meta", "eps", "11")],
    "eps-one-pair": [("meta", "eps", [1.0, 0.0])],
    "x-string": [("meta", "x", "3")],
    "tol-bool": [("meta", "tol", True)],
    "tol-string": [("meta", "tol", "1e-9")],
    "data-string-pair": [("matrix", "data", [["1", "0"]] * 4)],
    "negative-shape": [("matrix", "rows", -1), ("matrix", "cols", -1),
                       ("matrix", "data", [[1.0, 0.0]])],
}


@pytest.mark.parametrize("edits", MALFORMED_DOCUMENTS.values(), ids=MALFORMED_DOCUMENTS.keys())
def test_reader_rejects_what_the_writer_never_writes(edits):
    payload = json.loads(serialize_matrix(_doc()))
    for block, key, value in edits:
        if value is MISSING:
            del payload[block][key]
        else:
            payload[block][key] = value
    with pytest.raises(DocumentShapeError):
        deserialize_matrix(json.dumps(payload).encode())


def test_reader_takes_x_and_rapidities_as_optional():
    # the writer leaves an empty list out, so a document without either is complete
    raw = serialize_matrix(MatrixDocument(kind="smatrix", n=1, q=0.5, matrix=np.eye(2),
                                          convention="n/a"))
    assert b'"x"' not in raw and b'"rapidities"' not in raw
    assert serialize_matrix(deserialize_matrix(raw)) == raw
