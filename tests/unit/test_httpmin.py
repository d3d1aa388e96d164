"""Unit tests for the minimal HTTP layer."""

import pytest

from repro.httpmin import HttpClient, HttpError, HttpRequest, HttpResponse, HttpServer
from repro.netsim import Network


@pytest.fixture()
def web():
    net = Network()
    client_host = net.add_host("client.example")
    server_host = net.add_host("www.example")
    server = HttpServer()
    server.route("GET", "/", lambda req, remote: HttpResponse(200, body=b"index"))
    server.route(
        "POST",
        "/report",
        lambda req, remote: HttpResponse(200, body=b"got " + str(len(req.body)).encode()),
    )
    server_host.listen(80, server.factory)
    return net, HttpClient(client_host), server


class TestCodec:
    def test_request_round_trip(self):
        request = HttpRequest(
            "POST", "/x", headers={"Host": "h", "X-Extra": "1"}, body=b"body"
        )
        decoded, rest = HttpRequest.try_decode(request.encode())
        assert rest == b""
        assert decoded.method == "POST"
        assert decoded.path == "/x"
        assert decoded.headers["x-extra"] == "1"
        assert decoded.body == b"body"

    def test_response_round_trip(self):
        response = HttpResponse(200, body=b"hello", headers={"X-A": "b"})
        decoded, rest = HttpResponse.try_decode(response.encode())
        assert rest == b""
        assert decoded.status == 200
        assert decoded.body == b"hello"
        assert decoded.ok

    def test_incomplete_headers_buffered(self):
        partial = b"GET / HTTP/1.1\r\nHost: x"
        decoded, rest = HttpRequest.try_decode(partial)
        assert decoded is None
        assert rest == partial

    def test_incomplete_body_buffered(self):
        encoded = HttpRequest("POST", "/", body=b"12345").encode()
        decoded, rest = HttpRequest.try_decode(encoded[:-2])
        assert decoded is None

    def test_pipelined_requests(self):
        data = HttpRequest("GET", "/a").encode() + HttpRequest("GET", "/b").encode()
        first, rest = HttpRequest.try_decode(data)
        second, leftover = HttpRequest.try_decode(rest)
        assert first.path == "/a"
        assert second.path == "/b"
        assert leftover == b""

    def test_bad_request_line(self):
        with pytest.raises(HttpError):
            HttpRequest.try_decode(b"NONSENSE\r\n\r\n")

    def test_bad_header_line(self):
        with pytest.raises(HttpError):
            HttpRequest.try_decode(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n")

    def test_bad_status_code(self):
        with pytest.raises(HttpError):
            HttpResponse.try_decode(b"HTTP/1.1 abc Bad\r\n\r\n")

    # Non-numeric, signed, split, empty and non-ASCII digit (latin-1
    # superscript two: ``str.isdigit`` accepts it, ``int`` does not).
    BAD_LENGTHS = ["abc", "-5", "+5", "5 5", "0x10", "", "\u00b2"]

    @pytest.mark.parametrize("value", BAD_LENGTHS)
    def test_request_content_length_must_be_ascii_digits(self, value):
        head = f"POST /report HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
        with pytest.raises(HttpError, match="Content-Length"):
            HttpRequest.try_decode(head.encode("latin-1") + b"GET / HTTP/1.1\r\n\r\n")

    @pytest.mark.parametrize("value", BAD_LENGTHS)
    def test_response_content_length_must_be_ascii_digits(self, value):
        head = f"HTTP/1.1 200 OK\r\nContent-Length: {value}\r\n\r\n"
        with pytest.raises(HttpError, match="Content-Length"):
            HttpResponse.try_decode(head.encode("latin-1") + b"body")

    def test_padded_digits_are_a_length(self):
        decoded, rest = HttpRequest.try_decode(
            b"POST / HTTP/1.1\r\nContent-Length:  007 \r\n\r\n1234567tail"
        )
        assert decoded.body == b"1234567"
        assert rest == b"tail"


class TestClientServer:
    def test_get(self, web):
        _, client, server = web
        response = client.get("www.example", "/")
        assert response.ok
        assert response.body == b"index"
        assert server.requests_handled == 1

    def test_post(self, web):
        _, client, _ = web
        response = client.post("www.example", "/report", b"x" * 100)
        assert response.body == b"got 100"

    def test_404(self, web):
        _, client, _ = web
        assert client.get("www.example", "/missing").status == 404

    def test_handler_exception_becomes_500(self, web):
        net, client, server = web

        def boom(request, remote):
            raise RuntimeError("kaput")

        server.route("GET", "/boom", boom)
        response = client.get("www.example", "/boom")
        assert response.status == 500
        assert b"kaput" in response.body

    def test_malformed_request_gets_400(self, web):
        net, client, server = web
        sock = client.host.connect("www.example", 80)
        sock.send(b"NOT HTTP AT ALL\r\n\r\n")
        response, _ = HttpResponse.try_decode(sock.recv())
        assert response.status == 400
        assert server.parse_errors == 1

    @pytest.mark.parametrize("value", [b"abc", b"-5"])
    def test_bad_content_length_gets_400_and_a_parse_error(self, web, value):
        """``-5`` used to truncate the body and frame its tail as the
        next request; ``abc`` escaped as a bare ValueError."""
        net, client, server = web
        sock = client.host.connect("www.example", 80)
        sock.send(
            b"POST /report HTTP/1.1\r\nContent-Length: " + value + b"\r\n\r\n"
            + b"GET / HTTP/1.1\r\n\r\n"
        )
        response, rest = HttpResponse.try_decode(sock.recv())
        assert response.status == 400
        assert rest == b""
        assert server.parse_errors == 1
        assert server.requests_handled == 0

    def test_keep_alive_multiple_requests(self, web):
        net, client, server = web
        sock = client.host.connect("www.example", 80)
        sock.send(HttpRequest("GET", "/", headers={"Host": "www.example"}).encode())
        first, rest = HttpResponse.try_decode(sock.recv())
        sock.send(HttpRequest("GET", "/", headers={"Host": "www.example"}).encode())
        second, _ = HttpResponse.try_decode(sock.recv())
        assert first.ok and second.ok
        assert server.requests_handled == 2
