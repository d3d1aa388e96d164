"""HTTP/1.1 request/response framing."""

from __future__ import annotations

from dataclasses import dataclass, field


class HttpError(ValueError):
    """Raised on malformed HTTP framing."""


class HttpBodyTooLarge(HttpError):
    """A request declared a body over the decoder's limit.

    Raised as soon as the head is framed, before any of the body is
    buffered; ``request`` carries the method, path and headers.
    """

    def __init__(self, request: "HttpRequest", length: int, limit: int) -> None:
        super().__init__(f"body of {length} bytes exceeds the {limit}-byte limit")
        self.request = request


_CRLF = b"\r\n"
_HEADER_END = b"\r\n\r\n"


def _encode_headers(headers: dict[str, str], body: bytes) -> list[str]:
    lines = []
    seen = {name.lower() for name in headers}
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    if "content-length" not in seen:
        lines.append(f"Content-Length: {len(body)}")
    return lines


def _parse_headers(block: bytes) -> dict[str, str]:
    headers: dict[str, str] = {}
    for line in block.split(_CRLF):
        if not line:
            continue
        if b":" not in line:
            raise HttpError(f"bad header line {line!r}")
        name, _, value = line.partition(b":")
        headers[name.decode("latin-1").strip().lower()] = value.decode(
            "latin-1"
        ).strip()
    return headers


def _content_length(headers: dict[str, str]) -> int:
    """The declared body length: ASCII digits only, else :class:`HttpError`.

    ``int()`` alone would take ``-5`` (truncating the body and framing
    its tail as the next message) or raise a bare ``ValueError``.
    """
    value = headers.get("content-length", "0")
    if not (value.isascii() and value.isdigit()):
        raise HttpError(f"bad Content-Length {value!r}")
    return int(value)


@dataclass
class HttpRequest:
    """An HTTP request with an optional body."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def encode(self) -> bytes:
        lines = [f"{self.method} {self.path} HTTP/1.1"]
        lines.extend(_encode_headers(self.headers, self.body))
        head = "\r\n".join(lines).encode("latin-1") + _HEADER_END
        return head + self.body

    @classmethod
    def try_decode(
        cls, data: bytes, max_body: int | None = None
    ) -> tuple["HttpRequest | None", bytes]:
        """Decode one request if complete; return (request|None, leftover).

        A declared body over ``max_body`` raises :class:`HttpBodyTooLarge`.
        """
        end = data.find(_HEADER_END)
        if end < 0:
            return None, data
        head, rest = data[:end], data[end + 4 :]
        lines = head.split(_CRLF)
        parts = lines[0].decode("latin-1").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(f"bad request line {lines[0]!r}")
        headers = _parse_headers(_CRLF.join(lines[1:]))
        length = _content_length(headers)
        if max_body is not None and length > max_body:
            raise HttpBodyTooLarge(
                cls(method=parts[0], path=parts[1], headers=headers), length, max_body
            )
        if len(rest) < length:
            return None, data
        return (
            cls(method=parts[0], path=parts[1], headers=headers, body=rest[:length]),
            rest[length:],
        )


@dataclass
class HttpResponse:
    """An HTTP response."""

    status: int
    reason: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    _REASONS = {
        200: "OK",
        204: "No Content",
        400: "Bad Request",
        404: "Not Found",
        413: "Payload Too Large",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    def encode(self) -> bytes:
        reason = self.reason or self._REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        lines.extend(_encode_headers(self.headers, self.body))
        head = "\r\n".join(lines).encode("latin-1") + _HEADER_END
        return head + self.body

    @classmethod
    def try_decode(cls, data: bytes) -> tuple["HttpResponse | None", bytes]:
        end = data.find(_HEADER_END)
        if end < 0:
            return None, data
        head, rest = data[:end], data[end + 4 :]
        lines = head.split(_CRLF)
        parts = lines[0].decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise HttpError(f"bad status line {lines[0]!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise HttpError(f"bad status code {parts[1]!r}") from exc
        headers = _parse_headers(_CRLF.join(lines[1:]))
        length = _content_length(headers)
        if len(rest) < length:
            return None, data
        reason = parts[2] if len(parts) == 3 else ""
        return (
            cls(status=status, reason=reason, headers=headers, body=rest[:length]),
            rest[length:],
        )

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300
