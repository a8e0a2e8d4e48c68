"""Command-line interface: anonymize, audit, fit and apply CSV microdata.

Examples
--------
Anonymize a CSV with the t-closeness-first algorithm::

    repro-anonymize anonymize patients.csv release.csv \\
        --qi age,zip,admission_day --confidential charge -k 5 -t 0.15

The same release under a composed policy (k-anonymity + t-closeness +
distinct l-diversity)::

    repro-anonymize anonymize patients.csv release.csv \\
        --qi age,zip --confidential charge --require k=5,t=0.15,l=3

Fit once, serve batches later (the fit/apply lifecycle)::

    repro-anonymize fit patients.csv model.npz \\
        --qi age,zip --confidential charge --require k=5,t=0.15
    repro-anonymize apply model.npz new_batch.csv batch_release.csv

Long fits survive crashes: checkpoint to a directory, and after a kill
resume from it (bit-for-bit identical to an uninterrupted run)::

    repro-anonymize fit patients.csv model.npz --qi age,zip \\
        --confidential charge --require k=5,t=0.15 --checkpoint ckpt/
    repro-anonymize fit patients.csv model.npz --qi age,zip \\
        --confidential charge --require k=5,t=0.15 --resume ckpt/

Publish fitted models into a versioned registry and serve them over HTTP
(endpoints ``/v1/transform``, ``/v1/assign``, ``/v1/models``, ``/healthz``,
``/metrics``; see :mod:`repro.serving`)::

    repro-anonymize publish model.npz --registry registry/ --name patients
    repro-anonymize serve --registry registry/ --port 8765

Audit an existing release (exit code 1 when a declared requirement fails)::

    repro-anonymize audit release.csv --qi age,zip --confidential charge \\
        --require k=5,t=0.15

Bad input — an unknown column name, a missing file, an unusable policy
or artifact — prints one ``error: ...`` line and exits 2.

``python -m repro ...`` is equivalent.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core.anonymizer import METHODS, anonymize
from .core.model import Anonymizer
from .core.policy import KAnonymity, PolicyError, PrivacyPolicy, TCloseness
from .core.repair import PolicyInfeasibleError
from .core.validation import ValidationError
from .data.dataset import SchemaError
from .data.io import read_csv, write_csv
from .privacy.audit import audit, audit_policy
from .registry import RegistryError
from .runtime.atomic import ArtifactError
from .serving import AnonymizationService, ModelRegistry


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for doc generation/tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-anonymize",
        description=(
            "k-anonymous t-close microdata release via microaggregation "
            "(Soria-Comas et al., reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_roles(p: argparse.ArgumentParser, *, identifier: bool = False) -> None:
        p.add_argument(
            "--qi",
            required=True,
            help="comma-separated quasi-identifier column names",
        )
        p.add_argument(
            "--confidential",
            required=True,
            help="comma-separated confidential column names",
        )
        if identifier:
            p.add_argument(
                "--identifier",
                default="",
                help="comma-separated identifier columns (dropped from the release)",
            )

    def add_policy(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "-k", type=int, default=None, help="k-anonymity level"
        )
        p.add_argument(
            "-t", type=float, default=None, help="t-closeness level"
        )
        p.add_argument(
            "--require",
            default=None,
            metavar="SPEC",
            help=(
                "privacy policy spec, e.g. k=5,t=0.15,l=3 "
                "(keys: k-anonymity, t-closeness, distinct l-diversity, "
                "p-sensitivity); combines with -k/-t"
            ),
        )

    def add_method(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--method",
            choices=sorted(METHODS),
            default="tclose-first",
            help="algorithm (default: tclose-first, the paper's best)",
        )

    anon = sub.add_parser("anonymize", help="anonymize a CSV file")
    anon.add_argument("input", help="input CSV (header row required)")
    anon.add_argument("output", help="output CSV for the release")
    add_roles(anon, identifier=True)
    add_policy(anon)
    add_method(anon)
    anon.add_argument(
        "--report",
        action="store_true",
        help="print the run summary and a privacy audit of the release",
    )

    aud = sub.add_parser("audit", help="audit an existing release CSV")
    aud.add_argument("input", help="released CSV to audit")
    add_roles(aud)
    aud.add_argument(
        "--require",
        default=None,
        metavar="SPEC",
        help=(
            "audit against this policy spec (e.g. k=5,t=0.15,l=3) and "
            "exit 1 when any requirement fails"
        ),
    )

    fit = sub.add_parser(
        "fit", help="fit an anonymization model and save it for `apply`"
    )
    fit.add_argument("input", help="input CSV (header row required)")
    fit.add_argument("model", help="output model path (.npz + .json sidecar)")
    add_roles(fit, identifier=True)
    add_policy(fit)
    add_method(fit)
    fit.add_argument(
        "--release",
        default=None,
        help="optionally also write the fitted table's release CSV here",
    )
    run = fit.add_mutually_exclusive_group()
    run.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help=(
            "snapshot fit progress to DIR so a killed run can continue; "
            "re-running the identical command — or `fit --resume DIR` — "
            "resumes with bit-for-bit identical output"
        ),
    )
    run.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "continue a killed checkpointed fit from DIR (the checkpoint "
            "embeds the data and policy, so the input/policy flags of the "
            "original command are ignored)"
        ),
    )

    apply_ = sub.add_parser(
        "apply", help="anonymize a batch CSV with a fitted model"
    )
    apply_.add_argument("model", help="model path written by `fit`")
    apply_.add_argument("input", help="batch CSV to anonymize")
    apply_.add_argument("output", help="output CSV for the batch release")

    publish = sub.add_parser(
        "publish", help="publish a fitted model into a serving registry"
    )
    publish.add_argument("model", help="model path written by `fit`")
    publish.add_argument(
        "--registry", required=True, metavar="DIR", help="registry directory"
    )
    publish.add_argument(
        "--name", required=True, help="model name inside the registry"
    )
    publish.add_argument(
        "--version",
        default=None,
        help="version label (default: the next v<N>)",
    )
    publish.add_argument(
        "--no-activate",
        action="store_true",
        help="publish without making the new version live",
    )

    serve = sub.add_parser(
        "serve", help="serve a registry's active models over HTTP"
    )
    serve.add_argument(
        "--registry", required=True, metavar="DIR", help="registry directory"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8765, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-batch-rows",
        type=int,
        default=4096,
        help="flush a coalesced batch at this many pending rows",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="flush a coalesced batch after this many milliseconds",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="per-model transform cache budget in rows (0 disables)",
    )
    serve.add_argument(
        "--max-queue-rows",
        type=int,
        default=0,
        help=(
            "admission bound: answer 429 + Retry-After once this many "
            "rows are pending (0 = unbounded)"
        ),
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="close keep-alive connections idle this long (0 disables)",
    )
    serve.add_argument(
        "--max-requests-per-connection",
        type=int,
        default=0,
        help="rotate keep-alive connections after this many requests "
        "(0 = unlimited)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "serving processes sharing the port (SO_REUSEPORT, or an "
            "inherited listener where unavailable); 1 = in-process"
        ),
    )
    serve.add_argument(
        "--no-mmap",
        action="store_true",
        help="copy model arrays into private memory instead of mmapping",
    )

    return parser


def _split(arg: str) -> list[str]:
    return [name.strip() for name in arg.split(",") if name.strip()]


def _build_policy(args: argparse.Namespace) -> PrivacyPolicy:
    """Combine ``--require`` with the legacy ``-k``/``-t`` flags."""
    policy = PrivacyPolicy()
    if args.require:
        policy = PrivacyPolicy.parse(args.require)
    if args.k is not None:
        policy = policy & KAnonymity(args.k)
    if args.t is not None:
        policy = policy & TCloseness(args.t)
    if not policy.requirements:
        raise PolicyError(
            "no privacy requirements declared; pass -k/-t or --require"
        )
    return policy


def _read_roles(args: argparse.Namespace, path: str):
    return read_csv(
        path,
        quasi_identifiers=_split(args.qi),
        confidential=_split(args.confidential),
        identifiers=_split(getattr(args, "identifier", "") or ""),
    )


def _cmd_anonymize(args: argparse.Namespace) -> int:
    data = _read_roles(args, args.input)
    policy = _build_policy(args)
    model = Anonymizer(policy, method=args.method).fit(data)
    release, result = model.release_, model.result_
    write_csv(release, args.output)
    print(f"wrote {release.n_records} records to {args.output}")
    print(result.summary())
    if args.report:
        verdict = model.audit(data.drop_identifiers())
        print()
        print(verdict.format())
    else:
        # Exit code only: skip the posture report and the linkage attack.
        verdict = model.audit(posture=False)
        if not verdict.satisfied:
            print(f"policy {policy.spec()} VIOLATED by the release")
    return 0 if verdict.satisfied else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    data = _read_roles(args, args.input)
    if args.require:
        verdict = audit_policy(data, PrivacyPolicy.parse(args.require))
        print(verdict.format())
        return 0 if verdict.satisfied else 1
    print(audit(data).format())
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.resume:
        model = Anonymizer.resume(args.resume)
        policy = model.policy
    else:
        data = _read_roles(args, args.input)
        policy = _build_policy(args)
        model = Anonymizer(policy, method=args.method).fit(
            data, checkpoint=args.checkpoint
        )
    # Write every output before printing, so an interrupted pipe cannot
    # leave a model without its companion release.
    npz_path, sidecar = model.save(args.model)
    if args.release:
        write_csv(model.release_, args.release)
    print(f"wrote model to {npz_path} (+ {sidecar})")
    if args.release:
        print(f"wrote {model.release_.n_records} records to {args.release}")
    print(model.report_.format())
    verdict = model.audit(posture=False)
    if not verdict.satisfied:
        print(f"policy {policy.spec()} VIOLATED by the fitted release")
    return 0 if verdict.satisfied else 1


def _cmd_apply(args: argparse.Namespace) -> int:
    import csv

    model = Anonymizer.load(args.model)
    with open(args.input, newline="") as handle:
        header = next(csv.reader(handle), [])
    batch = read_csv(args.input, schema=model.batch_schema(tuple(header)))
    release = model.transform(batch)
    write_csv(release, args.output)
    print(
        f"wrote {release.n_records} records to {args.output} "
        f"(policy {model.policy.spec()}, method {model.method})"
    )
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    model = Anonymizer.load(args.model)
    registry = ModelRegistry(args.registry)
    version = registry.publish(
        args.name,
        model,
        version=args.version,
        activate=not args.no_activate,
    )
    state = "active" if not args.no_activate else "published (not active)"
    print(f"published {args.name}/{version} to {args.registry} [{state}]")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    service_kwargs = dict(
        mmap_mode=None if args.no_mmap else "r",
        max_batch_rows=args.max_batch_rows,
        max_wait_ms=args.max_wait_ms,
        max_queue_rows=args.max_queue_rows,
        cache_size=args.cache_size,
        idle_timeout_s=args.idle_timeout,
        max_requests_per_connection=args.max_requests_per_connection,
    )
    if args.workers > 1:
        from .serving.workers import serve_workers

        registry = ModelRegistry(args.registry)
        if not any(
            registry.active_version(name) for name in registry.names()
        ):
            print(
                f"error: registry {args.registry} has no active models; "
                "run `repro-anonymize publish` first",
                file=sys.stderr,
            )
            return 2
        return serve_workers(
            args.registry,
            args.host,
            args.port,
            args.workers,
            service_kwargs=service_kwargs,
        )
    service = AnonymizationService(args.registry, **service_kwargs)
    loaded = service.load_models()
    if not loaded:
        print(
            f"error: registry {args.registry} has no active models; "
            "run `repro-anonymize publish` first",
            file=sys.stderr,
        )
        return 2
    service.run(args.host, args.port)
    return 0


_COMMANDS = {
    "anonymize": _cmd_anonymize,
    "audit": _cmd_audit,
    "fit": _cmd_fit,
    "apply": _cmd_apply,
    "publish": _cmd_publish,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        handler = _COMMANDS[args.command]
    except KeyError:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(f"unhandled command {args.command!r}") from None
    try:
        return handler(args)
    except (
        PolicyError,
        PolicyInfeasibleError,
        RegistryError,
        SchemaError,
        FileNotFoundError,
        ValidationError,
        ArtifactError,
    ) as exc:
        # Bad flag values die in argparse choices; RegistryError covers
        # method names read back from a saved model or checkpoint.
        # SchemaError covers column names the input CSV lacks and
        # FileNotFoundError a missing input CSV.  ValidationError covers
        # unusable fit inputs (NaN/inf quasi-identifiers, empty or
        # too-small tables, batch/schema mismatches); ArtifactError covers
        # missing/corrupt/version-skewed model and checkpoint files.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
