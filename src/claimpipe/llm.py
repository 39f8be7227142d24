"""Completion backends: an HTTP chat endpoint and a deterministic script.

Every completion is addressed by a content hash of (model, prompt, sampling
parameters), which doubles as the on-disk cache key. The scripted backend maps
prompt hashes (or regexes over prompt text) to canned responses and is the
basis for all offline tests.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import re
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import requests

DEFAULT_TEMPERATURE = 0.05
DEFAULT_MAX_TOKENS = 512
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
# Statuses whose Retry-After header is honoured.
RETRY_AFTER_STATUSES = frozenset({429, 503})


class BackendError(Exception):
    """Base error for completion failures; carries the prompt hash."""

    def __init__(self, message: str, prompt_sha256: str | None = None):
        self.prompt_sha256 = prompt_sha256
        if prompt_sha256:
            message = f"{message} [prompt {prompt_sha256[:12]}]"
        super().__init__(message)


class TransportError(BackendError):
    """Network failure or non-success HTTP status after retries."""


class MalformedResponseError(BackendError):
    """The endpoint answered but not in the expected shape. Not retried."""


class ScriptedMissError(BackendError):
    """No script entry matched the prompt. Not retried."""


class BackendKind(str, Enum):
    HTTP_CHAT = "http"
    SCRIPTED = "scripted"


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
        if self.kind is BackendKind.HTTP_CHAT and not self.endpoint_url:
            raise ValueError("http backend requires an endpoint URL")
        if self.kind is BackendKind.SCRIPTED and not self.script_path:
            raise ValueError("scripted backend requires a script path")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")


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


class ResponseCache:
    """One JSON file per completion, written atomically (tmp then rename)."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> CompletionResponse | None:
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            return CompletionResponse(
                text=data["text"],
                prompt_tokens=int(data.get("prompt_tokens", 0)),
                completion_tokens=int(data.get("completion_tokens", 0)),
                cached=True,
            )
        except (OSError, ValueError, KeyError, TypeError):
            # Unreadable or truncated entries count as misses.
            return None

    def put(self, key: str, response: CompletionResponse) -> None:
        payload = {
            "text": response.text,
            "prompt_tokens": response.prompt_tokens,
            "completion_tokens": response.completion_tokens,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, ensure_ascii=False)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def entries(self) -> list[Path]:
        return sorted(self.directory.glob("*.json"))

    def clear(self) -> int:
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
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


class CompletionClient:
    """Caching client over one configured backend. Thread-safe.

    A scripted backend reads its script file, unless ``script``, already
    loaded from that file, is given. An HTTP backend keeps one kept-alive
    ``requests.Session`` per calling thread, opened on that thread's first
    call; ``close`` closes them all.
    """

    def __init__(
        self,
        backend: BackendConfig,
        cache: ResponseCache | None = None,
        script: Script | None = None,
    ):
        self.backend = backend
        self.cache = cache
        if backend.kind is not BackendKind.SCRIPTED:
            script = None
        elif script is None:
            script = Script.load(backend.script_path)
        self.script = script
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sessions: list[requests.Session] = []
        self.prompt_tokens_total = 0
        self.completion_tokens_total = 0
        self.request_count = 0
        self.cache_hits = 0

    def close(self) -> None:
        """Close every thread's session and its connections, once no call is
        in flight. A later call opens a new session."""
        with self._lock:
            sessions, self._sessions = self._sessions, []
            self._local = threading.local()
        for session in sessions:
            session.close()

    def _session(self) -> requests.Session:
        """This thread's session. On creation it reads the environment once,
        as ``requests`` would on every call: netrc auth, and the proxies and
        CA bundle for the endpoint; it then stops consulting it."""
        session = getattr(self._local, "session", None)
        if session is None:
            url = self.backend.endpoint_url
            session = requests.Session()
            session.auth = requests.utils.get_netrc_auth(url)
            settings = session.merge_environment_settings(url, {}, None, None, None)
            session.proxies = settings["proxies"]
            session.verify = settings["verify"]
            session.trust_env = False
            with self._lock:
                self._sessions.append(session)
            self._local.session = session
        return session

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
        body = {
            "model": request.model_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {}
        api_key = os.environ.get(self.backend.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        session = self._session()
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
            try:
                resp = session.post(
                    self.backend.endpoint_url,
                    json=body,
                    headers=headers,
                    timeout=self.backend.request_timeout,
                )
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            if resp.status_code in RETRYABLE_STATUSES:
                last_error = f"HTTP {resp.status_code}"
                if resp.status_code in RETRY_AFTER_STATUSES:
                    retry_after = resp.headers.get("Retry-After")
                continue
            if resp.status_code != 200:
                raise TransportError(
                    f"HTTP {resp.status_code}: {resp.text[:200]}",
                    prompt_sha256=digest,
                )
            return self._parse_chat_response(resp, digest)
        raise TransportError(
            f"gave up after {self.backend.max_retries} retries ({last_error})",
            prompt_sha256=digest,
        )

    def _parse_chat_response(
        self, resp: requests.Response, digest: str
    ) -> CompletionResponse:
        try:
            data = resp.json()
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
