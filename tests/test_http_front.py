"""The HTTP front on the wire, and the client bodies it answers with 400.

* Every socket the server accepts has TCP_NODELAY set, and each response
  (status line, headers and body) leaves in one socket write, so a client
  that delays its ACKs never waits on Nagle's algorithm.
* A burst of new connections fits the listen backlog: no client waits for
  a SYN retransmit.
* Malformed explain bodies (non-scalar clause values, pathological
  nesting, an ordered comparison on a string column) and ``append_rows``
  batches with unknown columns or values their column cannot hold answer
  400, never 500; a rejected append leaves the dataset version alone.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.datasets.stackoverflow import generate_so_dataset
from repro.distributed.replicas import merge_rows
from repro.mesa.config import MESAConfig
from repro.serving import ExplanationService, make_server
from repro.serving.http import MAX_BODY_BYTES
from repro.table.table import Table


def _serve(service: ExplanationService):
    server = make_server(service, port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def _stop(server, service: ExplanationService) -> None:
    server.shutdown()
    server.server_close()
    service.close()


def _exchange(port: int, method: str, path: str, body=None,
              timeout: float = 60.0):
    """One request on a new connection: ``(status, parsed JSON or text)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    if response.getheader("Content-Type") == "application/json":
        return response.status, json.loads(raw)
    return response.status, raw.decode("utf-8")


@pytest.fixture(scope="module")
def covid_server(covid_bundle):
    service = ExplanationService(coalesce_window_seconds=0.0)
    service.register_bundle(covid_bundle, config=MESAConfig(
        excluded_columns=tuple(covid_bundle.id_columns), k=3), warm=False)
    server = _serve(service)
    yield server
    _stop(server, service)


@pytest.fixture()
def server_writes(covid_server, monkeypatch):
    """The data of every send/sendall on the server's end of a socket."""
    port = covid_server.server_address[1]
    writes = []
    for name in ("send", "sendall"):
        def counting(sock, data, *args, _original=getattr(socket.socket, name)):
            try:
                if sock.getsockname()[1] == port:
                    writes.append(bytes(data))
            except OSError:  # a closed socket has no local address
                pass
            return _original(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, counting)
    return writes


# --------------------------------------------------------------------------- #
# the wire
# --------------------------------------------------------------------------- #
class TestWire:
    def test_every_accepted_socket_sets_tcp_nodelay(self, covid_server,
                                                    monkeypatch):
        accepted = []
        get_request = covid_server.get_request

        def recording():
            request = get_request()
            accepted.append(request[0])
            return request

        monkeypatch.setattr(covid_server, "get_request", recording)
        port = covid_server.server_address[1]
        # Keep-alive connections keep the server's sockets open to read.
        connections = [http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=60)
                       for _ in range(3)]
        try:
            for connection in connections:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            assert len(accepted) == len(connections)
            for sock in accepted:
                assert sock.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0
        finally:
            for connection in connections:
                connection.close()

    @pytest.mark.parametrize("method, path, body, status", [
        ("GET", "/healthz", None, 200),
        ("GET", "/metrics", None, 200),
        ("POST", "/explain", b"{}", 400),
        ("GET", "/no-such-route", None, 404),
    ])
    def test_one_write_per_response(self, covid_server, server_writes,
                                    method, path, body, status):
        got, payload = _exchange(covid_server.server_address[1], method,
                                 path, body)
        assert got == status
        assert len(server_writes) == 1
        head, _, sent_body = server_writes[0].partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        expected = payload.encode() if isinstance(payload, str) \
            else json.dumps(payload).encode()
        assert sent_body == expected

    def test_one_write_for_a_body_too_large(self, covid_server,
                                            server_writes):
        connection = http.client.HTTPConnection(
            "127.0.0.1", covid_server.server_address[1], timeout=60)
        try:
            # Announce an oversized body and send none of it: the server
            # must refuse before reading.
            connection.putrequest("POST", "/explain")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 413
        assert "exceeds" in payload["errors"][0]
        assert len(server_writes) == 1

    def test_http09_request_gets_the_body_alone(self, covid_server,
                                                server_writes):
        with socket.create_connection(
                ("127.0.0.1", covid_server.server_address[1]),
                timeout=60) as sock:
            # A request line without a version; the blank line ends the
            # (empty) header block the stdlib still reads.
            sock.sendall(b"GET /healthz\r\n\r\n")
            received = b"".join(iter(lambda: sock.recv(65536), b""))
        assert json.loads(received)["status"] == "ok"
        assert server_writes == [received]

    def test_connection_burst_fits_the_listen_backlog(self, covid_server):
        """64 clients connecting at once are all answered within 1 s.

        An overflowing listen queue drops handshakes, and Linux resends a
        dropped SYN after 1 s: a client that takes that long waited on the
        backlog, not on the service.
        """
        port = covid_server.server_address[1]
        n_clients = 64
        barrier = threading.Barrier(n_clients)
        outcomes = [None] * n_clients

        def client(index: int) -> None:
            barrier.wait()
            started = time.perf_counter()
            try:
                status = _exchange(port, "GET", "/healthz", timeout=10)[0]
            except OSError as exc:
                status = repr(exc)
            outcomes[index] = (status, time.perf_counter() - started)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        late = [outcome for outcome in outcomes
                if outcome is None or outcome[0] != 200 or outcome[1] >= 1.0]
        assert not late, (f"{len(late)} of {n_clients} connections failed "
                          f"or took 1 s or more: {late[:5]}")


# --------------------------------------------------------------------------- #
# malformed explain bodies
# --------------------------------------------------------------------------- #
class TestMalformedBodies:
    @pytest.mark.parametrize("clause, fragment", [
        ({"op": "in", "values": [[1], [2]]}, "requires JSON scalars"),
        ({"op": "in", "values": [{"a": 1}]}, "requires JSON scalars"),
        ({"op": "eq", "value": {"a": 1}}, "requires a JSON scalar"),
    ])
    def test_non_scalar_clause_values_get_400(self, covid_server,
                                              covid_bundle, clause, fragment):
        body = {"dataset": covid_bundle.name, "exposure": "Country",
                "outcome": "Deaths_per_100_cases",
                "context": [dict(clause, column="WHO_Region")]}
        status, payload = _exchange(covid_server.server_address[1], "POST",
                                    "/explain", json.dumps(body).encode())
        assert status == 400
        assert fragment in payload["errors"][0]

    @pytest.mark.parametrize("clause", [
        {"op": "gt", "value": 5},
        {"op": "between", "low": 1, "high": 2},
    ])
    def test_ordered_comparison_on_a_string_column_gets_400(
            self, covid_server, covid_bundle, clause):
        body = {"dataset": covid_bundle.name, "exposure": "Country",
                "outcome": "Deaths_per_100_cases",
                "context": [dict(clause, column="WHO_Region")]}
        status, payload = _exchange(covid_server.server_address[1], "POST",
                                    "/explain", json.dumps(body).encode())
        assert status == 400
        assert "'WHO_Region'" in payload["errors"][0]
        assert "string" in payload["errors"][0]

    def test_ordered_comparison_on_a_numeric_column_answers(
            self, covid_server, covid_bundle):
        body = {"dataset": covid_bundle.name, "exposure": "Country",
                "outcome": "Deaths_per_100_cases",
                "context": [{"column": "Month", "op": "gt", "value": 3}]}
        status, payload = _exchange(covid_server.server_address[1], "POST",
                                    "/explain", json.dumps(body).encode())
        assert status == 200
        assert payload["envelope"]["explanation"]["attributes"]

    def test_deeply_nested_body_gets_400(self, covid_server):
        status, payload = _exchange(covid_server.server_address[1], "POST",
                                    "/explain", b"[" * 200_000)
        assert status == 400
        assert "nests too deeply" in payload["errors"][0]


# --------------------------------------------------------------------------- #
# append_rows: the client's rows against the table's schema
# --------------------------------------------------------------------------- #
@pytest.fixture()
def so_server(so_bundle):
    service = ExplanationService(coalesce_window_seconds=0.0)
    service.register_bundle(so_bundle, warm=False)
    server = _serve(service)
    yield service, server.server_address[1]
    _stop(server, service)


def _append(port: int, rows):
    return _exchange(port, "POST", "/append_rows", json.dumps(
        {"dataset": "SO", "rows": rows, "rewarm": False}).encode())


class TestAppendRows:
    def test_omitted_numeric_column_becomes_a_missing_cell(self, so_server,
                                                           so_bundle):
        service, port = so_server
        row = dict(so_bundle.table.row(0))
        del row["Age"]
        status, payload = _append(port, [row])
        assert status == 200
        assert payload["dataset_version"] == 1
        table = service.pipeline("SO").context.table
        assert table.n_rows == so_bundle.table.n_rows + 1
        appended = table.row(table.n_rows - 1)
        assert appended["Age"] is None
        assert appended["Salary"] == row["Salary"]

    @pytest.mark.parametrize("row_update, column", [
        ({"Salary": "lots"}, "'Salary'"),
        ({"Age": 29.5}, "'Age'"),
        ({"Country": 7}, "'Country'"),
        ({"Bonus": 5}, "'Bonus'"),
    ])
    def test_rejected_rows_get_400_and_keep_the_version(
            self, so_server, so_bundle, row_update, column):
        service, port = so_server
        rows = [dict(so_bundle.table.row(0)),
                dict(so_bundle.table.row(1), **row_update)]
        status, payload = _append(port, rows)
        assert status == 400
        assert column in payload["errors"][0]
        context = service.pipeline("SO").context
        assert context.dataset_version == 0
        assert context.table.n_rows == so_bundle.table.n_rows

    def test_well_typed_rows_merge_like_from_rows(self):
        generated = generate_so_dataset(n_rows=260, seed=11)
        table = Table.from_rows(generated.to_rows()[:200], name="SO")
        rows = json.loads(json.dumps(generated.to_rows()[200:]))
        merged = merge_rows(table, rows)
        expected = table.concat_rows(
            Table.from_rows(rows, columns=table.column_names))
        assert merged.name == expected.name
        assert merged.schema == expected.schema
        for name in table.column_names:
            assert merged[name].to_list() == expected[name].to_list()

    def test_integral_floats_fit_int_columns(self, so_bundle):
        row = dict(so_bundle.table.row(0), Age=31.0, Respondent=9001)
        merged = merge_rows(so_bundle.table, [row])
        assert merged.row(merged.n_rows - 1)["Age"] == 31
