"""Command-line entry points: scan, summarize, mock serve, doctype classify."""

from __future__ import annotations

import argparse
import sys
import time

from .jsonform import BadInput
from .rendering import RenderingMode, classify_doctype, default_profiles, load_profiles
from .reports import read_records, render_csv, render_table, run_scan, summarize, write_records
from .scanning import ScanConfig, suffix_form


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rposcan")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="scan pages from a seed file")
    scan.set_defaults(run=_cmd_scan)
    scan.add_argument("--seed", required=True, help="file with one URL per line")
    scan.add_argument("--cookies", help="per-site cookie file (host<TAB>k=v;k2=v2)")
    scan.add_argument("--out", help="records file (json lines); default stdout")
    scan.add_argument("--profiles", help="browser profile JSON file")
    defaults = ScanConfig()
    scan.add_argument("--delay", type=int, default=round(defaults.per_host_delay * 1000),
                      help="per-host delay in ms")
    scan.add_argument(
        "--max-hosts",
        type=int,
        default=defaults.max_concurrent_hosts,
        help="hosts scanned at once; each host's requests stay serialized and paced",
    )
    scan.add_argument("--timeout", type=int, default=round(defaults.request_timeout * 1000),
                      help="the most one request may take in ms, each redirect hop "
                      "its own request: connect, send and whole response, not each read")
    scan.add_argument("--seed-rng", type=int, default=defaults.seed, help="nonce RNG seed")
    scan.add_argument(
        "--allow-suffix",
        action="append",
        default=[],
        metavar="SUFFIX",
        help="remove a suffix from the blocklist, in any case; a suffix not on it is an "
        "input error (lab use against loopback hosts only)",
    )

    summ = sub.add_parser("summarize", help="summarize a records file")
    summ.set_defaults(run=_cmd_summarize)
    summ.add_argument("--in", dest="infile", required=True)
    summ.add_argument("--format", choices=("table", "csv"), default="table")

    mock = sub.add_parser("mock", help="mock target server")
    mock_sub = mock.add_subparsers(dest="mock_command", required=True)
    mock_serve = mock_sub.add_parser("serve", help="serve one target config")
    mock_serve.set_defaults(run=_cmd_mock_serve)
    mock_serve.add_argument("--config", required=True, help="target config JSON file")
    mock_serve.add_argument("--port", type=int, default=8080)

    doctype = sub.add_parser("doctype", help="doctype utilities")
    doctype_sub = doctype.add_subparsers(dest="doctype_command", required=True)
    classify = doctype_sub.add_parser("classify", help="classify a doctype per engine")
    classify.set_defaults(run=_cmd_doctype_classify)
    group = classify.add_mutually_exclusive_group(required=True)
    group.add_argument("--doctype", help="doctype text; use '(none)' for no doctype")
    group.add_argument("--stdin", action="store_true", help="read doctypes from stdin")
    classify.add_argument("--profile", help="restrict to one engine name")

    return parser


def _cmd_scan(args) -> int:
    profiles = load_profiles(args.profiles) if args.profiles else default_profiles()
    blocked = ScanConfig().blocked_suffixes
    allowed = set(map(suffix_form, args.allow_suffix))
    unknown = sorted(allowed.difference(blocked))
    if unknown:
        print(f"error: --allow-suffix {', '.join(unknown)} is not on the blocklist "
              f"({', '.join(blocked)})", file=sys.stderr)
        return 2
    try:
        config = ScanConfig(
            per_host_delay=args.delay / 1000.0,
            max_concurrent_hosts=args.max_hosts,
            request_timeout=args.timeout / 1000.0,
            blocked_suffixes=tuple(s for s in blocked if s not in allowed),
            profiles=profiles,
            seed=args.seed_rng,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = run_scan(args.seed, config, cookie_file=args.cookies)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            count = write_records(records, fh)
    else:
        count = write_records(records, sys.stdout)
    print(f"wrote {count} records", file=sys.stderr)
    return 0


def _cmd_summarize(args) -> int:
    table = summarize(read_records(args.infile))
    if args.format == "csv":
        print(render_csv(table))
    else:
        print(render_table(table))
    return 0


def _cmd_mock_serve(args) -> int:
    from .mock_target import load_config, serve  # only this command loads the mock

    config = load_config(args.config)
    server = serve(config, args.port)
    print(
        f"serving {config.name!r} on http://127.0.0.1:{server.port}{config.page_path}",
        flush=True,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _cmd_doctype_classify(args) -> int:
    profiles = default_profiles()
    if args.profile:
        profiles = [p for p in profiles if p.engine.value == args.profile]
        if not profiles:
            print(f"error: unknown profile {args.profile!r}", file=sys.stderr)
            return 2
    if args.stdin:
        doctypes = [line.rstrip("\n") for line in sys.stdin if line.strip()]
    else:
        doctypes = [args.doctype]
    for text in doctypes:
        doctype = None if text.strip() in ("", "(none)") else text
        shown = "(none)" if doctype is None else doctype
        verdicts = []
        for profile in profiles:
            mode = classify_doctype(doctype, profile)
            label = "quirks" if mode is RenderingMode.QUIRKS else "standards"
            verdicts.append(f"{profile.engine.value}={label}")
        print(f"{shown}\t" + " ".join(verdicts))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, BadInput) as exc:  # an input file, or a port that cannot be served
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
