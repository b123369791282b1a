import inspect
import json

import numpy as np
import pytest

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
    payload = json.loads(serialize_matrix(doc))
    del payload["meta"]["tol"]
    assert deserialize_matrix(json.dumps(payload).encode()).tol == DEFAULT_REL_TOL
    report = ReportDocument(kind="verify", n=1, q=0.5, checks=[], convention="n/a")
    assert report.tol == inspect.signature(check_ybe).parameters["tol"].default
