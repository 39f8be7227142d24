"""Command line interface.

Subcommands: ``verify`` one claim against an evidence file, ``eval`` a
dataset, ``ablate`` a set of pipeline variants, and ``cache`` inspection.

Option precedence: explicit flags beat the ``--config`` JSON file, which
beats built-in defaults. Exit codes: 0 success, 2 configuration error,
3 data error, 4 backend failure, 1 any other pipeline failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .data import (
    DataError,
    json_text,
    load_feverous,
    load_generic,
    load_hover,
    write_json,
)
# ``verify`` reads its evidence file with the loaders' own entry rules.
from .data import load_evidence as _read_evidence_file
from .evaluation import comparison_table, run_ablation_matrix, run_eval
from .llm import BackendConfig, BackendError, BackendKind, ResponseCache
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


DEFAULTS: dict = {
    "dataset": "generic",
    "data_path": None,
    "hops": None,
    "backend": "http",
    "endpoint": "",
    "model": "default",
    "abstraction_model": None,
    "api_key_env": "LLM_API_KEY",
    "script": None,
    "t1": 60.0,
    "t2": 60.0,
    "min_keywords": 2,
    "with_claim_context": None,
    "variants": None,
    "workers": min(8, os.cpu_count() or 1),
    "cache_dir": ".claimpipe-cache",
    "prompts_dir": None,
    "out": None,
    "temperature": 0.05,
    "max_tokens": 512,
    "short_circuit": False,
    "claim": None,
    "evidence": None,
    "clear": False,
    # Config-file-only tuning knobs (no dedicated flags).
    "max_retries": 3,
    "backoff_base": 1.0,
    "request_timeout": 60.0,
}


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file with option defaults")
    parser.add_argument(
        "--backend", choices=["http", "scripted"], help="completion backend kind"
    )
    parser.add_argument("--endpoint", help="chat completions endpoint URL")
    parser.add_argument("--model", help="model id for verification calls")
    parser.add_argument(
        "--abstraction-model",
        dest="abstraction_model",
        help="model id for keyword extraction and summarization (defaults to --model)",
    )
    parser.add_argument(
        "--api-key-env",
        dest="api_key_env",
        help="environment variable holding the API key (default LLM_API_KEY)",
    )
    parser.add_argument("--script", help="script file for the scripted backend")
    parser.add_argument("--t1", type=float, help="partial-ratio threshold (default 60)")
    parser.add_argument(
        "--t2", type=float, help="token-set-ratio threshold (default 60)"
    )
    parser.add_argument(
        "--min-keywords",
        dest="min_keywords",
        type=int,
        help="minimum selected keywords required to summarize a piece (default 2)",
    )
    parser.add_argument(
        "--with-claim-context",
        dest="with_claim_context",
        action=argparse.BooleanOptionalAction,
        help="prefix subclaim questions with the full claim "
        "(default: on for hover, off otherwise)",
    )
    parser.add_argument("--workers", type=int, help="parallel claims (default cpu-bounded)")
    parser.add_argument(
        "--cache-dir",
        dest="cache_dir",
        help="completion cache directory (default .claimpipe-cache)",
    )
    parser.add_argument(
        "--prompts-dir",
        dest="prompts_dir",
        help="directory with prompt templates (default: packaged prompts)",
    )
    parser.add_argument("--out", help="directory for reports and traces")
    parser.add_argument(
        "--temperature", type=float, help="sampling temperature (default 0.05)"
    )
    parser.add_argument(
        "--max-tokens",
        dest="max_tokens",
        type=int,
        help="completion token limit (default 512)",
    )
    parser.add_argument(
        "--short-circuit",
        dest="short_circuit",
        action=argparse.BooleanOptionalAction,
        help="stop verifying subclaims after the first False",
    )


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=["hover", "feverous", "generic"], help="dataset flavor"
    )
    parser.add_argument("--data-path", dest="data_path", help="dataset file")
    parser.add_argument(
        "--hops", type=int, choices=[2, 3, 4], help="restrict hover claims by hop count"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claimpipe",
        description="Keyword-guided evidence abstraction and claim "
        "deconstruction for claim verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one claim against evidence")
    p_verify.add_argument("--claim", help="claim text", required=False)
    p_verify.add_argument(
        "--evidence", help="evidence file (JSON array or JSONL)", required=False
    )
    _add_common_options(p_verify)

    p_eval = sub.add_parser("eval", help="evaluate a dataset")
    _add_dataset_options(p_eval)
    _add_common_options(p_eval)

    p_ablate = sub.add_parser("ablate", help="run pipeline variants side by side")
    p_ablate.add_argument(
        "--variants",
        help="comma-separated variant names (default: all)",
    )
    _add_dataset_options(p_ablate)
    _add_common_options(p_ablate)

    p_cache = sub.add_parser("cache", help="inspect or clear the completion cache")
    p_cache.add_argument(
        "--cache-dir",
        dest="cache_dir",
        help="completion cache directory (default .claimpipe-cache)",
    )
    p_cache.add_argument("--clear", action="store_true", help="remove cached entries")

    return parser


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
        unknown = set(file_options) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        effective.update(file_options)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        # None means "flag not given"; explicit False (e.g. --no-short-circuit)
        # must still override the config file.
        if value is not None:
            effective[key] = value
    # A numeric option is read as the type of its default, in one place, so a
    # config file value of the wrong type is a ConfigError naming its key.
    for key, default in DEFAULTS.items():
        kind = type(default)
        if kind not in (int, float):
            continue
        try:
            effective[key] = kind(effective[key])
        except (TypeError, ValueError) as exc:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(
                f"{key} must be {expected}, got {json.dumps(effective[key])}"
            ) from exc
    return effective


def _resolve_claim_context(options: dict) -> bool:
    if options["with_claim_context"] is not None:
        return bool(options["with_claim_context"])
    return options.get("dataset") == "hover"


def _build_backend(options: dict, model_id: str) -> BackendConfig:
    kind = BackendKind(options["backend"])
    if kind is BackendKind.HTTP_CHAT and not options["endpoint"]:
        raise ConfigError("http backend requires --endpoint")
    if kind is BackendKind.SCRIPTED and not options["script"]:
        raise ConfigError("scripted backend requires --script")
    if kind is BackendKind.SCRIPTED and not Path(options["script"]).exists():
        raise ConfigError(f"script file not found: {options['script']}")
    try:
        return BackendConfig(
            kind=kind,
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
        short_circuit=bool(options["short_circuit"]),
        abstraction_backend=abstraction,
        verification_backend=verification,
    )


def _load_instances(options: dict) -> list[ClaimInstance]:
    if not options["data_path"]:
        raise ConfigError("--data-path is required")
    dataset = options["dataset"]
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
    cache = ResponseCache(options["cache_dir"])
    with open_verifier(config, prompts, cache=cache) as verifier:
        report = verifier.verify_claim(instance)
    payload = {"config": config.to_dict(), "report": report.to_dict()}
    sys.stdout.write(json_text(payload))
    if options["out"]:
        write_json(Path(options["out"]) / "verify.json", payload)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    options = _merge_options(args)
    instances = _load_instances(options)
    config = _build_pipeline_config(options, Ablation.NONE)
    prompts = PromptLibrary.load(options["prompts_dir"])
    cache = ResponseCache(options["cache_dir"])
    trace_dir = Path(options["out"]) / "traces" if options["out"] else None
    report = run_eval(
        instances,
        config,
        prompts,
        cache=cache,
        workers=options["workers"],
        trace_dir=trace_dir,
    )
    table = report.to_table()
    print(table)
    if options["out"]:
        out_dir = Path(options["out"])
        write_json(out_dir / "report.json", report.to_dict())
        (out_dir / "table.txt").write_text(table + "\n", encoding="utf-8")
        print(f"report written to {options['out']}", file=sys.stderr)
    return 0


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
    table = comparison_table(reports)
    print(table)
    if options["out"]:
        out_dir = Path(options["out"])
        for report in reports:
            write_json(out_dir / report.variant.value / "report.json", report.to_dict())
        (out_dir / "comparison.txt").write_text(table + "\n", encoding="utf-8")
        print(f"reports written to {out_dir}", file=sys.stderr)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    options = _merge_options(args)
    cache = ResponseCache(options["cache_dir"])
    entries = cache.entries()
    total_bytes = sum(path.stat().st_size for path in entries)
    print(f"cache dir: {cache.directory}")
    print(f"entries: {len(entries)}")
    print(f"bytes: {total_bytes}")
    if options["clear"]:
        removed = cache.clear()
        print(f"removed: {removed}")
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "cache": cmd_cache,
}


def _backend_in_chain(exc: BaseException) -> bool:
    seen: BaseException | None = exc
    while seen is not None:
        if isinstance(seen, BackendError):
            return True
        seen = seen.__cause__
    return False


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
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 4
    except PipelineError as exc:
        if _backend_in_chain(exc):
            print(f"backend error: {exc}", file=sys.stderr)
            return 4
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # ConfigError, PromptError and invalid settings from the library.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
