"""Command line interface.

Subcommands: ``verify`` one claim against an evidence file, ``eval`` a
dataset, ``ablate`` a set of pipeline variants, and ``cache`` inspection.

Option precedence: explicit flags beat the ``--config`` JSON file, which
beats built-in defaults. Exit codes: 0 success, 2 configuration error,
3 data error, 4 backend failure (for ``eval`` and ``ablate``: a transport fault
failed every claim), 1 any other pipeline failure, or a file that could not
be read or written (one ``error:`` line, no traceback).
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .data import (
    DataError,
    load_feverous,
    load_generic,
    load_hover,
    write_json,
)
# ``verify`` reads its evidence file with the loaders' own entry rules.
from .data import load_evidence as _read_evidence_file
from .evaluation import (
    EvalReport,
    check_outputs,
    comparison_table,
    run_ablation_matrix,
    run_into,
)
from .llm import (
    BackendConfig,
    BackendError,
    BackendKind,
    ResponseCache,
    TransportError,
    has_lone_surrogate,
)
from .pipeline import (
    Ablation,
    ClaimInstance,
    PipelineConfig,
    PipelineError,
    open_verifier,
)
from .prompts import PromptLibrary

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_RUN = ("verify", "eval", "ablate")
_DATA = ("eval", "ablate")
_COMMANDS = {
    "verify": "verify one claim against evidence",
    "eval": "evaluate a dataset",
    "ablate": "run pipeline variants side by side",
    "cache": "inspect or clear the completion cache",
}


@dataclass(frozen=True)
class Option:
    """One run setting: its default, the type a config file must give it,
    the subcommands that take it as a flag, and the values it may take."""

    default: object
    kind: type
    help: str
    commands: tuple[str, ...] = _RUN
    choices: tuple | None = None


# Every option, in ``--help`` order. A config file may set any of them; those
# with no subcommands are config-file-only tuning knobs.
OPTIONS: dict[str, Option] = {
    "claim": Option(None, str, "claim text", ("verify",)),
    "evidence": Option(None, str, "evidence file (JSON array or JSONL)", ("verify",)),
    "variants": Option(None, str, "comma-separated variant names (default: all)",
                       ("ablate",)),
    "dataset": Option("generic", str, "dataset flavor", _DATA,
                      ("hover", "feverous", "generic")),
    "data_path": Option(None, str, "dataset file", _DATA),
    "hops": Option(None, int, "restrict hover claims by hop count", _DATA, (2, 3, 4)),
    "backend": Option("http", str, "completion backend kind",
                      choices=tuple(kind.value for kind in BackendKind)),
    "endpoint": Option("", str, "chat completions endpoint URL"),
    "model": Option(BackendConfig.model_id, str, "model id for verification calls"),
    "abstraction_model": Option(None, str, "model id for keyword extraction and "
                                "summarization (defaults to --model)"),
    "api_key_env": Option(BackendConfig.api_key_env, str,
                          "environment variable holding the API key"),
    "script": Option(None, str, "script file for the scripted backend"),
    "t1": Option(PipelineConfig.t1, float, "partial-ratio threshold"),
    "t2": Option(PipelineConfig.t2, float, "token-set-ratio threshold"),
    "min_keywords": Option(PipelineConfig.min_keywords_for_summary, int,
                           "minimum selected keywords required to summarize a piece"),
    "with_claim_context": Option(None, bool, "prefix subclaim questions with the full "
                                 "claim (default: on for hover, off otherwise)"),
    "workers": Option(min(8, os.cpu_count() or 1), int,
                      "parallel claims (HTTP backends)", _DATA),
    "cache_dir": Option(".claimpipe-cache", str, "completion cache directory",
                        (*_RUN, "cache")),
    "prompts_dir": Option(None, str, "directory with prompt templates "
                          "(default: packaged prompts)"),
    "out": Option(None, str, "directory for reports and traces"),
    "temperature": Option(BackendConfig.temperature, float, "sampling temperature"),
    "max_tokens": Option(BackendConfig.max_tokens, int, "completion token limit"),
    "short_circuit": Option(PipelineConfig.short_circuit, bool,
                            "stop verifying subclaims after the first False"),
    "clear": Option(False, bool, "remove cached entries", ("cache",)),
    "max_retries": Option(BackendConfig.max_retries, int,
                          "retries after a failed call", ()),
    "backoff_base": Option(BackendConfig.backoff_base, float,
                           "seconds before the first retry, doubled per retry", ()),
    "request_timeout": Option(BackendConfig.request_timeout, float,
                              "seconds to connect, or to wait for the next bytes", ()),
}
DEFAULTS = {key: option.default for key, option in OPTIONS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimpipe",
        description="Keyword-guided evidence abstraction and claim "
        "deconstruction for claim verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=h) for name, h in _COMMANDS.items()}
    for name in _RUN:
        commands[name].add_argument("--config", help="JSON file with option defaults")
    for key, option in OPTIONS.items():
        help_text = option.help
        if option.default not in (None, ""):
            help_text += f" (default {option.default})"
        # A flag's parsed default is None, meaning "not given", so that the
        # config file and then the table's default apply.
        if option.kind is bool:
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {"type": option.kind, "choices": option.choices}
        flag = "--" + key.replace("_", "-")
        for name in option.commands:
            commands[name].add_argument(flag, dest=key, help=help_text, **kind)
    return parser


_EXPECTED = {
    float: "a number", int: "an integer", bool: "true or false", str: "a string"
}


def _utf8(name: str, value: object) -> object:
    """``value``, unless it is text holding a lone surrogate, which no prompt
    hash, cache key or output file can encode. Argument bytes that are not
    UTF-8 arrive as one, and so does a config file's unpaired ``\\udXXX``."""
    if isinstance(value, str) and has_lone_surrogate(value):
        raise ConfigError(f"{name} is not UTF-8 text: it holds a lone surrogate")
    return value


def _checked(key: str, value: object) -> object:
    """A config-file value, checked against its option: an int is widened where
    a float is expected, and null is taken only where the default is null."""
    option = OPTIONS[key]
    if value is None and option.default is None:
        return None
    if option.kind is float and type(value) is int:
        value = float(value)
    if type(value) is option.kind and (
        option.choices is None or value in option.choices
    ):
        return _utf8(key, value)
    expected = _EXPECTED[option.kind]
    if option.choices is not None:
        expected = f"one of {json.dumps(option.choices)}"
    raise ConfigError(f"{key} must be {expected}, got {json.dumps(value)}")


def _merge_options(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    effective = dict(DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_options = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_options, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_options) - set(OPTIONS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_options.items():
            effective[key] = _checked(key, value)
    for key in OPTIONS:
        value = getattr(args, key, None)
        # None means "flag not given"; explicit False (e.g. --no-short-circuit)
        # must still override the config file.
        if value is not None:
            effective[key] = _utf8("--" + key.replace("_", "-"), value)
    if effective["workers"] < 1:
        raise ConfigError("workers must be >= 1")
    for key in ("out", "cache_dir"):
        # Checked now, not when the first output is written after the calls.
        path = Path(effective[key] or ".")
        existing = next(place for place in (path, *path.parents) if place.exists())
        if not existing.is_dir():
            raise ConfigError(f"{key} must be a directory, and {existing} is not one")
    return effective


def _resolve_claim_context(options: dict) -> bool:
    if options["with_claim_context"] is not None:
        return options["with_claim_context"]
    return options.get("dataset") == "hover"


def _build_backend(options: dict, model_id: str) -> BackendConfig:
    try:
        backend = BackendConfig(
            kind=BackendKind(options["backend"]),
            endpoint_url=options["endpoint"],
            api_key_env=options["api_key_env"],
            script_path=options["script"],
            model_id=model_id,
            temperature=options["temperature"],
            max_tokens=options["max_tokens"],
            request_timeout=options["request_timeout"],
            max_retries=options["max_retries"],
            backoff_base=options["backoff_base"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    script = backend.script_path
    if backend.kind is BackendKind.SCRIPTED and not Path(script).is_file():
        raise ConfigError(f"script file not found: no regular file at {script}")
    return backend


def _build_pipeline_config(options: dict, ablation: Ablation) -> PipelineConfig:
    verification = _build_backend(options, options["model"])
    abstraction_model = options["abstraction_model"] or options["model"]
    abstraction = _build_backend(options, abstraction_model)
    return PipelineConfig(
        t1=options["t1"],
        t2=options["t2"],
        min_keywords_for_summary=options["min_keywords"],
        with_claim_context=_resolve_claim_context(options),
        ablation=ablation,
        short_circuit=options["short_circuit"],
        abstraction_backend=abstraction,
        verification_backend=verification,
    )


def _load_instances(options: dict) -> list[ClaimInstance]:
    if not options["data_path"]:
        raise ConfigError("--data-path is required")
    dataset = options["dataset"]
    if options["hops"] is not None and dataset != "hover":
        raise ConfigError("hops filters hover claims only: use --dataset hover")
    if dataset == "hover":
        return load_hover(options["data_path"], hops=options["hops"])
    if dataset == "feverous":
        return load_feverous(options["data_path"])
    return load_generic(options["data_path"])


def cmd_verify(args: argparse.Namespace) -> int:
    options = _merge_options(args)
    if not options["claim"] or not str(options["claim"]).strip():
        raise ConfigError("--claim is required")
    if not options["evidence"]:
        raise ConfigError("--evidence is required")
    evidence = _read_evidence_file(options["evidence"])
    config = _build_pipeline_config(options, Ablation.NONE)
    prompts = PromptLibrary.load(options["prompts_dir"])
    instance = ClaimInstance(
        id="cli", claim=options["claim"], evidence=tuple(evidence)
    )
    written = Path(options["out"]) / "verify.json" if options["out"] else None
    if written is not None:
        check_outputs([written])
    cache = ResponseCache(options["cache_dir"])
    with open_verifier(config, prompts, cache=cache) as verifier:
        report = verifier.verify_claim(instance)
    payload = {"config": config.to_dict(), "report": report.to_dict()}
    sys.stdout.write(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")
    if written is not None:
        write_json(written, payload)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    options = _merge_options(args)
    instances = _load_instances(options)
    config = _build_pipeline_config(options, Ablation.NONE)
    prompts = PromptLibrary.load(options["prompts_dir"])
    cache = ResponseCache(options["cache_dir"])
    out = options["out"]
    report = run_into(out, instances, config, prompts, cache, options["workers"])
    print(report.to_table())
    if out:
        print(f"report written to {out}", file=sys.stderr)
    return _outage_status([report])


def _parse_variants(text: str | None) -> list[Ablation]:
    if not text:
        return list(Ablation)
    variants = []
    valid = ", ".join(a.value for a in Ablation)
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            variants.append(Ablation(name))
        except ValueError as exc:
            raise ConfigError(
                f"unknown variant {name!r} (expected one of: {valid})"
            ) from exc
    if not variants:
        raise ConfigError("no variants requested")
    if len(set(variants)) != len(variants):
        raise ConfigError("duplicate variants requested")
    return variants


def cmd_ablate(args: argparse.Namespace) -> int:
    options = _merge_options(args)
    variants = _parse_variants(options["variants"])
    instances = _load_instances(options)
    base_config = _build_pipeline_config(options, Ablation.NONE)
    prompts = PromptLibrary.load(options["prompts_dir"])
    cache = ResponseCache(options["cache_dir"])
    reports = run_ablation_matrix(
        instances,
        base_config,
        prompts,
        variants,
        cache=cache,
        workers=options["workers"],
        out_dir=options["out"],
    )
    print(comparison_table(reports))
    if options["out"]:
        print(f"reports written to {options['out']}", file=sys.stderr)
    return _outage_status(reports)


def cmd_cache(args: argparse.Namespace) -> int:
    """Print the cache's directory, its segment keys as ``entries:`` and the
    size of its files as ``bytes:``; with ``--clear``, remove those files,
    the older format's ``<key>.json`` entries and ``tmp*.tmp`` files too; other
    files in the directory are not the cache's and stay."""
    options = _merge_options(args)
    directory = Path(options["cache_dir"])
    # Opening a cache creates its directory; a missing one reads as empty.
    cache = ResponseCache(directory) if directory.is_dir() else None
    files = cache.files() if cache else []
    print(f"cache dir: {directory}")
    print(f"entries: {len(cache.entries()) if cache else 0}")
    print(f"bytes: {sum(path.stat().st_size for path in files)}")
    if options["clear"]:
        print(f"removed: {cache.clear() if cache else 0}")
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "cache": cmd_cache,
}


def _outage_status(reports: list[EvalReport]) -> int:
    """4 when a transport fault failed every claim of the run, else 0; a
    scripted miss or a malformed reply stays one claim's failure."""
    failures = [exc for report in reports for exc in report.failures]
    if len(failures) < sum(len(report.rows) for report in reports) or not all(
        isinstance(exc.__cause__, TransportError) for exc in failures
    ):
        return 0
    print(f"backend error: every claim failed, first: {failures[0]}", file=sys.stderr)
    return 4


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (BackendError, PipelineError) as exc:
        # A backend fault that failed a claim is its error's direct cause.
        if isinstance(exc, BackendError) or isinstance(exc.__cause__, BackendError):
            print(f"backend error: {exc}", file=sys.stderr)
            return 4
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # ConfigError, PromptError and invalid settings from the library.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A file that could not be read or written, such as an output path
        # with a file in the way.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
