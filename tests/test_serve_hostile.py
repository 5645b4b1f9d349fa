"""Malformed requests get a status line and a JSON body, never a dropped connection.

Each case used to raise a ``ValueError``/``TypeError`` out of parameter
parsing, which the HTTP layer answered by closing the socket.  They are
validated now (400), and anything that still escapes an endpoint becomes a
structured 500 instead of a dropped connection.
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.datasets import service_requests
from repro.serve import ReproApp, SnapshotRegistry, create_server
from repro.serve import endpoints as endpoints_module

_MEASURES = [{"column": "resolution_days"}]

#: (path, params, fragment of the 400 message)
MALFORMED = [
    ("/kpi", {"kpis": [{"name": "x", "column": "resolution_days", "target": "x"}]}, "'target'"),
    ("/kpi", {"kpis": [{"name": "x", "column": "resolution_days", "target": {}}]}, "'target'"),
    ("/kpi", {"kpis": [{"name": "x", "column": "resolution_days", "target": True}]}, "'target'"),
    ("/kpi", {"kpis": [{"name": "x", "column": "resolution_days", "target": 1.0,
                        "tolerance": "wide"}]}, "'tolerance'"),
    ("/kpi", {"kpis": [{"name": "x", "column": "resolution_days", "target": 1.0,
                        "tolerance": [0.1]}]}, "'tolerance'"),
    ("/cube/aggregate", {"dimensions": [{"name": "district", "levels": 5}],
                         "measures": _MEASURES}, "levels"),
    ("/cube/aggregate", {"dimensions": [{"name": "district", "levels": "district"}],
                         "measures": _MEASURES}, "levels"),
    ("/cube/aggregate", {"dimensions": [{"name": "district", "levels": ["district", 3]}],
                         "measures": _MEASURES}, "levels"),
]


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    return service_requests(n_rows=60, seed=3).save(tmp_path_factory.mktemp("hostile") / "requests.rps")


@pytest.fixture()
def app(store_path):
    registry = SnapshotRegistry()
    registry.publish("requests", store_path)
    yield ReproApp(registry)
    registry.close_all()


@pytest.mark.parametrize("path, params, fragment", MALFORMED)
def test_malformed_request_is_a_400_through_handle(app, path, params, fragment):
    status, headers, body = app.handle("POST", path, params)
    assert status == 400
    assert headers["Content-Type"] == "application/json"
    error = json.loads(body)
    assert error["status"] == 400 and fragment in error["error"]


def test_numeric_strings_stay_accepted(app):
    status, _, body = app.handle("POST", "/kpi", {"kpis": [
        {"name": "x", "column": "resolution_days", "target": "14", "tolerance": "0.2"}]})
    assert status == 200, body


def test_escaped_exception_is_a_structured_500(app, monkeypatch):
    def explode(dataset, params):
        raise RuntimeError("boom")

    monkeypatch.setitem(endpoints_module.ENDPOINTS, "/profile", ("dataset", explode))
    status, headers, body = app.handle("POST", "/profile", {})
    assert status == 500
    assert headers["Content-Type"] == "application/json"
    error = json.loads(body)
    assert error["status"] == 500 and "RuntimeError" in error["error"]


def test_malformed_requests_over_a_live_socket_keep_the_connection(store_path):
    srv = create_server(stores=[store_path])
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = srv.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        for path, params, fragment in MALFORMED:
            connection.request("POST", path, body=json.dumps(params),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            error = json.loads(response.read())
            assert response.status == 400 and fragment in error["error"]
        # The same keep-alive connection still answers a well-formed query.
        connection.request("POST", "/cube/aggregate", body=json.dumps(
            {"dimensions": ["district"], "measures": _MEASURES, "levels": ["district"]}),
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 200 and "table" in json.loads(response.read())
        connection.close()
    finally:
        srv.shutdown()
        thread.join(timeout=10)
        srv.close()
