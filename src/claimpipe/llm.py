"""Completion backends: an HTTP chat endpoint and a deterministic script.

Every completion is addressed by a content hash of (model, prompt, sampling
parameters), which doubles as the cache key. The HTTP backend speaks
HTTP/1.1 through the standard library's ``http.client``, on one kept-alive
connection per calling thread, and reads the proxy, CA-bundle and netrc
settings from the environment. ``ResponseCache`` appends completions to
segment files and serves them from an index built in memory when it is
opened, so a put creates no file and a get reads none. The scripted backend
maps prompt hashes (or regexes over prompt text) to canned responses and is
the basis for all offline tests.
"""
from __future__ import annotations

import base64
import hashlib
import http.client
import json
import math
import netrc
import os
import random
import re
import select
import ssl
import threading
import time
import urllib.request
import weakref
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from urllib.parse import SplitResult, unquote, urlsplit

DEFAULT_TEMPERATURE = 0.05
DEFAULT_MAX_TOKENS = 512
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# Statuses whose Retry-After header is honoured.
RETRY_AFTER_STATUSES = frozenset({429, 503})
# The name a failed attempt gives its fault, by the step that failed: a
# socket timeout's, then any other connection fault's. They are the names
# errors carried when the client ran on ``requests``. Each is retried; an
# ``ssl.SSLError`` at any step is an "SSLError" and is not, as a rejected
# certificate fails alike every time.
FAULT_NAMES = {
    "connect": ("ConnectTimeout", "ConnectionError"),
    "reply": ("ReadTimeout", "ConnectionError"),
    "body": ("ConnectionError", "ChunkedEncodingError"),
}


class BackendError(Exception):
    """Base error for completion failures; carries the prompt hash."""

    def __init__(self, message: str, prompt_sha256: str | None = None):
        self.prompt_sha256 = prompt_sha256
        if prompt_sha256:
            message = f"{message} [prompt {prompt_sha256[:12]}]"
        super().__init__(message)


class TransportError(BackendError):
    """Network fault or failed HTTP status after retries, or a request error."""


class MalformedResponseError(BackendError):
    """The endpoint answered but not in the expected shape. Not retried."""


class ScriptedMissError(BackendError):
    """No script entry matched the prompt. Not retried."""


class BackendKind(str, Enum):
    HTTP_CHAT = "http"
    SCRIPTED = "scripted"


def _is_http_url(url: str) -> bool:
    """Whether ``url`` is an http(s) URL with a host and no "@" after it.

    A "/", "?" or "#" in a password ends the authority early, so urlsplit
    would read the user as the host and the password's start as the port,
    and the request would go there; the "@" that ended the userinfo is left
    in the path, query or fragment.
    """
    try:
        parts = urlsplit(url)
        parts.port  # raises on a port that is not a number in range
    except ValueError:
        return False
    return (
        parts.scheme in ("http", "https")
        and bool(parts.hostname)
        and "@" not in parts.path + parts.query + parts.fragment
    )


# The userinfo of a URL: what follows "scheme://", "//", or the start of a
# URL without them, up to its last "@". An accepted endpoint has no "@" after
# its authority (see _is_http_url), so that "@" ends the userinfo urlsplit
# reads; in a rejected one, a "/", "?" or "#" in the password is hidden too.
_USERINFO_RE = re.compile(r"^((?:[A-Za-z][A-Za-z0-9+.-]*:)?//)?.*@")
# What urlsplit drops before it parses: leading controls and spaces, and every
# tab and line break.
_URL_DROPPED_RE = re.compile(r"^[\x00-\x20]+|[\t\r\n]")


def public_endpoint(url: str) -> str:
    """``url`` as an output file or an error message records it: credentials
    written in it, which go out as ``Basic`` authorization, become ``***``,
    also in a malformed URL such as ``user:password@host/path``. It is read
    as ``urlsplit`` reads it, so the credentials found are the ones sent."""
    return _USERINFO_RE.sub(r"\1***@", _URL_DROPPED_RE.sub("", url), count=1)


@dataclass(frozen=True)
class BackendConfig:
    kind: BackendKind
    endpoint_url: str = ""
    api_key_env: str = "LLM_API_KEY"
    script_path: str | None = None
    model_id: str = "default"
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    request_timeout: float = 60.0
    max_retries: int = 3
    backoff_base: float = 1.0

    def __post_init__(self) -> None:
        if self.kind is BackendKind.HTTP_CHAT and not _is_http_url(self.endpoint_url):
            raise ValueError(
                "http backend requires an endpoint: an http or https URL with a "
                "host and no '@' after it (percent-encode a '/' or '@' in a "
                f"password), got {public_endpoint(self.endpoint_url)!r}"
            )
        if self.kind is BackendKind.SCRIPTED and not self.script_path:
            raise ValueError("scripted backend requires a script path")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # Written so that NaN and the infinities fail too.
        if not 0 <= self.temperature < math.inf:
            raise ValueError(
                f"temperature must be finite and >= 0, not {self.temperature}"
            )
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if not 0 < self.request_timeout < math.inf:
            raise ValueError(
                "request_timeout must be finite and positive, "
                f"not {self.request_timeout}"
            )
        if not 0 <= self.backoff_base < math.inf:
            raise ValueError(
                f"backoff_base must be finite and >= 0, not {self.backoff_base}"
            )


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    model_id: str = "default"
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cached: bool = False
    # SHA-256 of the prompt, set by CompletionClient.complete; not cached.
    prompt_sha256: str = ""


def retry_delay(
    retry: int,
    backoff_base: float,
    jitter: float,
    retry_after: str | None = None,
    cap: float = float("inf"),
) -> float:
    """Seconds to wait before retry number ``retry`` (1-based).

    An integer ``retry_after`` (the header's delay-seconds form) wins, capped
    at ``cap``. Otherwise the exponential backoff ``backoff_base * 2**(retry-1)``
    scaled into [1/2, 1] by ``jitter`` in [0, 1], so that callers retrying
    together spread out.
    """
    if retry_after is not None and re.fullmatch(r"\s*[0-9]+\s*", retry_after):
        return min(float(retry_after), cap)
    return backoff_base * 2 ** (retry - 1) * (1.0 - jitter / 2.0)


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def cache_key(request: CompletionRequest) -> str:
    payload = json.dumps(
        [request.model_id, request.prompt, request.temperature, request.max_tokens],
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# The names of the files the cache writes: its segments, and from the
# one-file-per-entry format that segments replaced, ``<key>.json`` entries and
# the ``mkstemp`` files an interrupted put left. Only segments are read;
# ``clear`` removes all three. A directory's other files are not the cache's.
_SEGMENT_NAME = re.compile(r"[0-9]+-[0-9]+\.jsonl")
_CACHE_FILE_NAME = re.compile(
    rf"{_SEGMENT_NAME.pattern}|[0-9a-f]{{64}}\.json|tmp\w+\.tmp"
)


class ResponseCache:
    """Append-only completion cache in one directory. Thread-safe.

    Each instance appends to its own segment, ``<time_ns>-<pid>.jsonl``,
    created on its first put. A put writes one line, ``[key, text,
    prompt_tokens, completion_tokens]``, with one ``write``. Opening the
    cache creates the directory and indexes every segment in name order,
    keeping the first valid line of each key, so a cached response never
    changes under a later run. A torn or corrupt line is a miss, and the
    fresh completion is appended. Entries that another instance writes become
    visible when the cache is next opened. Files of the older
    one-file-per-entry format are not read, so their keys are misses, but
    ``files`` lists them and ``clear`` removes them.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._segment: Path | None = None
        self._index: dict[str, CompletionResponse] = {}
        with os.scandir(self.directory) as listing:
            segments = sorted(
                item.name for item in listing if _SEGMENT_NAME.fullmatch(item.name)
            )
        for name in segments:
            self._index_segment(self.directory / name)

    def _index_segment(self, path: Path) -> None:
        try:
            with open(path, "rb") as fh:
                for line in fh:
                    try:
                        entry = json.loads(line)
                        if not isinstance(entry, list):
                            continue
                        key, text, prompt_tokens, completion_tokens = entry
                        if (
                            isinstance(key, str)
                            and isinstance(text, str)
                            and key not in self._index
                        ):
                            self._index[key] = CompletionResponse(
                                text, int(prompt_tokens), int(completion_tokens),
                                cached=True,
                            )
                    except (ValueError, TypeError, OverflowError):
                        continue  # A torn or corrupt line is a miss.
        except OSError:
            pass  # An unreadable segment is all misses.

    def get(self, key: str) -> CompletionResponse | None:
        return self._index.get(key)

    def put(self, key: str, response: CompletionResponse) -> None:
        """Append ``response`` under ``key``, unless this instance already
        holds an entry for it (the first one wins, as at the next open)."""
        line = json.dumps(
            [key, response.text, response.prompt_tokens, response.completion_tokens],
            ensure_ascii=False,
        )
        data = f"{line}\n".encode("utf-8")
        with self._lock:
            if key in self._index:
                return
            flags = os.O_WRONLY | os.O_APPEND
            if self._segment is None:
                flags |= os.O_CREAT | os.O_EXCL
                name = f"{time.time_ns()}-{os.getpid()}.jsonl"
                segment = self.directory / name
            else:
                segment = self._segment
            fd = os.open(segment, flags, 0o644)
            try:
                written = os.write(fd, data)
            finally:
                os.close(fd)
            if written != len(data):
                # A torn tail: the next put starts a fresh segment.
                self._segment = None
                raise OSError(f"short write to cache segment {segment}")
            self._segment = segment
            self._index[key] = CompletionResponse(
                response.text, response.prompt_tokens, response.completion_tokens,
                cached=True,
            )

    def entries(self) -> list[str]:
        """The distinct keys indexed at open or put since."""
        return sorted(self._index)

    def files(self) -> list[Path]:
        """Every file ``clear`` removes: segments, and legacy entries and
        orphans of the older format, each known by its whole name."""
        with os.scandir(self.directory) as listing:
            return sorted(
                Path(item.path)
                for item in listing
                if _CACHE_FILE_NAME.fullmatch(item.name)
            )

    def clear(self) -> int:
        """Remove every cache file; the number of entries removed."""
        with self._lock:
            removed = len(self.entries())
            for path in self.files():
                path.unlink()
            self._index.clear()
            self._segment = None
        return removed


def script_entry(prompt: str, response: str) -> dict:
    """Build a hash-keyed script entry for a known prompt."""
    return {"hash": prompt_sha256(prompt), "response": response}


class Script:
    """Deterministic prompt -> response lookup loaded from a JSON file.

    Hash entries match the exact prompt; regex entries are tried in file
    order against the prompt text. Hash entries win over regex entries.
    A malformed entry raises ``ValueError`` naming its index.
    """

    def __init__(self, entries: list[dict]):
        self.by_hash: dict[str, str] = {}
        self.by_regex: list[tuple[re.Pattern[str], str]] = []
        for index, entry in enumerate(entries):
            response = entry.get("response") if isinstance(entry, dict) else None
            if not isinstance(response, str):
                raise ValueError(
                    f"script entry {index} must be an object with a string 'response'"
                )
            digest = entry.get("hash")
            if isinstance(digest, str) and "regex" not in entry:
                self.by_hash[digest] = response
                continue
            regex = entry.get("regex")
            if not isinstance(regex, str) or "hash" in entry:
                raise ValueError(
                    f"script entry {index} needs exactly one of a string 'hash' "
                    "or 'regex'"
                )
            try:
                pattern = re.compile(regex, re.DOTALL)
            except re.error as exc:
                raise ValueError(
                    f"script entry {index} has an invalid regex: {exc}"
                ) from exc
            self.by_regex.append((pattern, response))

    @classmethod
    def load(cls, path: str | Path) -> "Script":
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise ValueError("script file must contain a JSON list of entries")
        return cls(entries)

    def lookup(self, prompt: str, digest: str | None = None) -> str | None:
        """The response for ``prompt``, or None. ``digest`` is the prompt's
        SHA-256 when the caller has already computed it."""
        hit = self.by_hash.get(digest or prompt_sha256(prompt))
        if hit is not None:
            return hit
        for pattern, response in self.by_regex:
            if pattern.search(prompt):
                return response
        return None


def _basic_auth(user: str, password: str) -> str:
    token = base64.b64encode(f"{user}:{password}".encode("latin-1"))
    return f"Basic {token.decode('ascii')}"


def _netrc_credentials(host: str) -> tuple[str, str] | None:
    """The login (or else account) and password for ``host`` in the netrc
    file named by ``$NETRC``, else in ``~/.netrc`` or ``~/_netrc``; None when
    there is none, or it cannot be read or parsed."""
    names = [os.environ["NETRC"]] if "NETRC" in os.environ else ["~/.netrc", "~/_netrc"]
    paths = [path for path in map(os.path.expanduser, names) if os.path.exists(path)]
    if not paths:
        return None
    try:
        entry = netrc.netrc(paths[0]).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return None
    if entry is None:
        return None
    login, account, password = entry
    return login or account, password


def _proxy_for(parts: SplitResult) -> SplitResult | None:
    """The proxy for ``parts``' scheme, or ``ALL_PROXY``'s, unless none is
    set or ``NO_PROXY`` covers its host."""
    proxies = urllib.request.getproxies()
    proxy = proxies.get(parts.scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass(parts.hostname):
        return None
    return urlsplit(proxy if "://" in proxy else f"http://{proxy}")


def _route_to(
    url: str, timeout: float
) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
    """A connection towards ``url``, not yet open, with the request target
    and the headers to send on it, from the environment as it is now.

    https trusts the CA bundle named by ``REQUESTS_CA_BUNDLE``, else by
    ``CURL_CA_BUNDLE`` (a file, or a directory of certificates), and
    otherwise the system's. Through a proxy, plain http sends the whole URL
    as the target, and https goes through a CONNECT tunnel; credentials in
    the proxy URL are sent as ``Proxy-Authorization``. The netrc
    credentials for the host, else those in ``url``, are the ``Basic``
    authorization. ``timeout`` bounds connecting and each wait for bytes.
    """
    parts = urlsplit(url)
    target = parts.path or "/"
    if parts.query:
        target = f"{target}?{parts.query}"
    headers = {"Content-Type": "application/json"}
    credentials = _netrc_credentials(parts.hostname)
    if credentials is None and parts.username is not None:
        credentials = unquote(parts.username), unquote(parts.password or "")
    if credentials is not None:
        headers["Authorization"] = _basic_auth(*credentials)
    host, port = parts.hostname, parts.port
    proxy = _proxy_for(parts)
    proxy_headers = {}
    if proxy is not None:
        host, port = proxy.hostname, proxy.port or 80
        if proxy.username is not None:
            proxy_headers["Proxy-Authorization"] = _basic_auth(
                unquote(proxy.username), unquote(proxy.password or "")
            )
    if parts.scheme == "http":
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        if proxy is not None:
            target = f"http://{parts.netloc.rpartition('@')[2]}{target}"
            headers.update(proxy_headers)
        return connection, target, headers
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    if bundle and os.path.isdir(bundle):
        context = ssl.create_default_context(capath=bundle)
    else:
        context = ssl.create_default_context(cafile=bundle or None)
    connection = http.client.HTTPSConnection(
        host, port, timeout=timeout, context=context
    )
    if proxy is not None:
        connection.set_tunnel(parts.hostname, parts.port, headers=proxy_headers)
    return connection, target, headers


def _dropped(sock) -> bool:
    """Whether an idle kept-alive socket is readable: at its end because the
    server closed it, or holding bytes that no request asked for. Either way
    it cannot carry the next request."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


class CompletionClient:
    """Caching client over one configured backend. Thread-safe.

    A scripted backend reads its script file. An HTTP backend keeps one
    kept-alive ``http.client`` connection per calling thread, made on that
    thread's first call (see ``_route_to``), so constructing a client opens
    and reads nothing. ``close`` closes them all, and so does collecting a
    client that was never closed.
    """

    def __init__(self, backend: BackendConfig, cache: ResponseCache | None = None):
        self.backend = backend
        self.cache = cache
        self.script = None
        if backend.kind is BackendKind.SCRIPTED:
            self.script = Script.load(backend.script_path)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._finalizer: weakref.finalize | None = None
        self.prompt_tokens_total = 0
        self.completion_tokens_total = 0
        self.request_count = 0
        self.cache_hits = 0

    def close(self) -> None:
        """Close every thread's connection, once no call is in flight. A
        later call opens a new one."""
        with self._lock:
            connections = self._connections[:]
            self._connections.clear()
            self._local = threading.local()
        _close_all(connections)

    def _route(self) -> tuple[http.client.HTTPConnection, str, dict[str, str]]:
        """This thread's connection, request target and headers. They are
        made from the environment at the thread's first call, which reads
        the proxy, CA-bundle and netrc settings once, and then stops
        consulting them."""
        route = getattr(self._local, "route", None)
        if route is None:
            route = _route_to(self.backend.endpoint_url, self.backend.request_timeout)
            with self._lock:
                if self._finalizer is None:
                    # Closes the connections of a client collected unclosed.
                    self._finalizer = weakref.finalize(
                        self, _close_all, self._connections
                    )
                self._connections.append(route[0])
            self._local.route = route
        return route

    def request_for(self, prompt: str) -> CompletionRequest:
        return CompletionRequest(
            prompt=prompt,
            model_id=self.backend.model_id,
            temperature=self.backend.temperature,
            max_tokens=self.backend.max_tokens,
        )

    def complete_prompt(self, prompt: str) -> CompletionResponse:
        return self.complete(self.request_for(prompt))

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        """The response to ``request``, carrying the prompt's SHA-256.

        The prompt is hashed once per call; the cache key, a second hash,
        is built only when a cache is attached.
        """
        digest = prompt_sha256(request.prompt)
        key = cache_key(request) if self.cache is not None else None
        response = self.cache.get(key) if key is not None else None
        if response is not None:
            response = replace(response, prompt_sha256=digest)
        else:
            if self.backend.kind is BackendKind.SCRIPTED:
                response = self._scripted_complete(request, digest)
            else:
                response = self._http_complete(request, digest)
            if key is not None:
                self.cache.put(key, response)
        # A hit counts the tokens stored with it, so totals do not depend on
        # what the cache held before the run.
        with self._lock:
            if response.cached:
                self.cache_hits += 1
            else:
                self.request_count += 1
            self.prompt_tokens_total += response.prompt_tokens
            self.completion_tokens_total += response.completion_tokens
        return response

    def _scripted_complete(
        self, request: CompletionRequest, digest: str
    ) -> CompletionResponse:
        assert self.script is not None
        text = self.script.lookup(request.prompt, digest)
        if text is None:
            raise ScriptedMissError(
                "no script entry matches prompt", prompt_sha256=digest
            )
        return CompletionResponse(text=text, prompt_sha256=digest)

    def _http_complete(
        self, request: CompletionRequest, digest: str
    ) -> CompletionResponse:
        body = json.dumps(
            {
                "model": request.model_id,
                "messages": [{"role": "user", "content": request.prompt}],
                "temperature": request.temperature,
                "max_tokens": request.max_tokens,
            }
        ).encode()
        connection, target, headers = self._route()
        api_key = os.environ.get(self.backend.api_key_env, "")
        if api_key:
            # A configured key wins over netrc credentials.
            headers = {**headers, "Authorization": f"Bearer {api_key}"}
        last_error = "no attempt made"
        retry_after = None
        for attempt in range(self.backend.max_retries + 1):
            if attempt:
                time.sleep(
                    retry_delay(
                        attempt,
                        self.backend.backoff_base,
                        random.random(),
                        retry_after,
                        cap=self.backend.request_timeout,
                    )
                )
                retry_after = None
            step = "connect"
            try:
                # A connection the server closed while idle is reopened
                # within this attempt; a reply lost after sending is not
                # resent without spending one.
                if connection.sock is not None and _dropped(connection.sock):
                    connection.close()
                if connection.sock is None:
                    connection.connect()
                step = "reply"
                connection.request("POST", target, body, headers)
                # A reply that will close its connection closes it here.
                with connection.getresponse() as resp:
                    step = "body"
                    data = resp.read()
            except BaseException as exc:
                connection.close()
                if isinstance(exc, ssl.SSLError):
                    raise TransportError(
                        f"SSLError: {exc}", prompt_sha256=digest
                    ) from exc
                if not isinstance(exc, (OSError, http.client.HTTPException)):
                    raise
                name = FAULT_NAMES[step][not isinstance(exc, TimeoutError)]
                last_error = f"{name}: {exc}"
                continue
            if resp.status in RETRYABLE_STATUSES:
                last_error = f"HTTP {resp.status}"
                if resp.status in RETRY_AFTER_STATUSES:
                    retry_after = resp.getheader("Retry-After")
                continue
            if resp.status != 200:
                text = data.decode("utf-8", "replace")
                raise TransportError(
                    f"HTTP {resp.status}: {text[:200]}", prompt_sha256=digest
                )
            return self._parse_chat_response(data, digest)
        raise TransportError(
            f"gave up after {self.backend.max_retries} retries ({last_error})",
            prompt_sha256=digest,
        )

    def _parse_chat_response(self, body: bytes, digest: str) -> CompletionResponse:
        try:
            data = json.loads(body)
        except ValueError as exc:
            raise MalformedResponseError(
                f"response body is not JSON: {exc}", prompt_sha256=digest
            ) from exc
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(
                "response lacks choices[0].message.content", prompt_sha256=digest
            ) from exc
        if not isinstance(content, str):
            raise MalformedResponseError(
                "message content is not a string", prompt_sha256=digest
            )
        usage = data.get("usage") or {}

        def _count(name: str) -> int:
            value = usage.get(name, 0)
            return value if isinstance(value, int) and value >= 0 else 0

        return CompletionResponse(
            text=content,
            prompt_tokens=_count("prompt_tokens"),
            completion_tokens=_count("completion_tokens"),
            prompt_sha256=digest,
        )
