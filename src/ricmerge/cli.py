"""Command-line entry point.

Subcommands: ``run`` (one scenario comparison), ``sweep`` (one axis),
``calibrate`` (fit a power model to measured points), and the live-mode
roles ``broker``, ``node``, ``xapp``, run until Ctrl-C or ``--duration``.
Results go to stdout or ``--out`` as CSV or JSON, byte-identical for
identical invocations. Exit code 2 means a bad config, input, output
file or address, 1 a live role that could not listen, connect, set up
or subscribe, a broker that stopped accepting connections, or a node or
xApp whose connection to the broker ended before Ctrl-C or
``--duration``.
Only the live roles import ``wire``, so the batch commands never load
the socket, thread and broker code.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import threading
from dataclasses import asdict, replace

from . import scenario
from .power import MeasurementPoint, calibrate
from .scenario import ConfigError, SweepAxis

# Most values one --range may expand to: 125 times the largest default grid.
MAX_RANGE_POINTS = 10_000


def _parse_address(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ConfigError(f"bad address (want host:port): {text!r}")
    return host, int(port)


def _parse_range(text: str, axis: SweepAxis) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"bad range (want start:stop[:step]): {text!r}")
    try:
        start, stop, *step = map(float, parts)
    except ValueError as exc:
        raise ConfigError(f"bad range: {text!r}") from exc
    step = step[0] if step else scenario.SWEEP_AXES[axis].step
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ConfigError(f"bad range: {text!r}")
    values = []
    value = start
    while value <= stop + 1e-9:
        if len(values) == MAX_RANGE_POINTS:
            raise ConfigError(f"range has more than {MAX_RANGE_POINTS} points: {text!r}")
        values.append(round(value, 9))
        value += step
    return values


def _parse_duration(text: str) -> float:
    """A ``--duration``: seconds in [0, ``threading.TIMEOUT_MAX``], the
    longest ``Event.wait`` takes."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan  # rejected below, with the range in the message
    if not 0 <= seconds <= threading.TIMEOUT_MAX:
        raise argparse.ArgumentTypeError(
            f"want seconds in [0, {threading.TIMEOUT_MAX:g}]: {text!r}"
        )
    return seconds


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _render(rows, fmt: str) -> str:
    if fmt == "json":
        return scenario.rows_to_json(rows)
    return scenario.rows_to_csv(rows)


def _cmd_run(args: argparse.Namespace) -> int:
    spec, model, sim_cfg = scenario.load_config(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    rows = scenario.compare(spec, model, sim_cfg)
    _emit(_render(rows, args.format), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec, model, sim_cfg = scenario.load_config(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    axis = SweepAxis(args.axis)
    values = _parse_range(args.range, axis) if args.range else None
    rows = scenario.sweep(spec, model, sim_cfg, axis, values)
    _emit(_render(rows, args.format), args.out)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    points = []
    header_allowed = True  # the first line may be a header that holds no number
    try:
        with open(args.points, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rate, watts = map(float, line.split(","))
                    points.append(MeasurementPoint(rate, watts))
                except ValueError as exc:
                    if not header_allowed or any(map(_is_number, line.split(","))):
                        raise ConfigError(f"line {number}: bad point {line!r}: {exc}") from exc
                header_allowed = False
    except OSError as exc:
        raise ConfigError(f"cannot read {args.points}: {exc.strerror or exc}") from exc
    try:
        model = calibrate(points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fields = asdict(model)
    if args.format == "json":
        text = json.dumps(fields, indent=2) + "\n"
    else:
        text = ",".join(fields) + "\n" + ",".join(f"{v:.6g}" for v in fields.values()) + "\n"
    _emit(text, args.out)
    return 0


def _run(start, stop, ended: threading.Event, duration_s: float | None = None) -> bool:
    """Call ``start``, wait until ``ended`` is set, ``duration_s`` seconds
    pass or Ctrl-C, then call ``stop``, also when ``start`` failed.
    Returns whether ``ended`` was set first; Ctrl-C is not an error."""
    try:
        start()
        return ended.wait(duration_s)
    except KeyboardInterrupt:
        return False
    finally:
        stop()


def _cmd_broker(args: argparse.Namespace) -> int:
    from . import wire

    model = scenario.load_power(args.config) if args.config else None
    broker = wire.Broker(*_parse_address(args.listen), model, stats_interval_s=1.0)
    _run(broker.start, broker.stop, broker.accept_ended)
    if broker.accept_error is not None:
        raise RuntimeError(f"broker stopped accepting connections: {broker.accept_error}")
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    from . import wire

    node = wire.NodeEmulator(*_parse_address(args.broker), args.node_id)
    if _run(node.start, node.stop, node.ended):
        raise RuntimeError(f"connection to broker ended: {node.reason}")
    return 0


def _cmd_xapp(args: argparse.Namespace) -> int:
    from . import wire

    host, port = _parse_address(args.broker)
    xapp, node, items = scenario.load_subscribe(args.subscribe)
    client = wire.XAppClient(host, port, xapp)

    def start() -> None:
        client.connect()
        reply = client.subscribe(node, items)
        if not reply.accepted:
            raise RuntimeError(f"subscription rejected: {reply.reason}")

    if _run(start, client.close, client.ended, args.duration):
        raise RuntimeError(f"connection to broker ended: {client.reason}")
    print(json.dumps({"messages": client.received_messages, "samples": client.received_samples}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricmerge",
        description="KPI subscription merging, traffic and power analysis for RICs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="FILE", default=None)

    p_run = sub.add_parser("run", help="run one scenario comparison")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    add_output_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one scenario axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", choices=[a.value for a in SweepAxis], required=True)
    p_sweep.add_argument("--range", metavar="START:STOP[:STEP]", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    add_output_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="fit the power model to rate,watts points")
    p_cal.add_argument("points")
    add_output_flags(p_cal)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_broker = sub.add_parser("broker", help="run the live-mode broker")
    p_broker.add_argument("--listen", required=True, metavar="HOST:PORT")
    p_broker.add_argument("--config", default=None)
    p_broker.set_defaults(func=_cmd_broker)

    p_node = sub.add_parser("node", help="run a node emulator")
    p_node.add_argument("--broker", required=True, metavar="HOST:PORT")
    p_node.add_argument("--node-id", type=int, required=True)
    p_node.set_defaults(func=_cmd_node)

    p_xapp = sub.add_parser("xapp", help="run an xApp client")
    p_xapp.add_argument("--broker", required=True, metavar="HOST:PORT")
    p_xapp.add_argument("--subscribe", required=True, metavar="FILE")
    p_xapp.add_argument("--duration", type=_parse_duration, default=None, metavar="SECONDS")
    p_xapp.set_defaults(func=_cmd_xapp)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1  # config or input: 2; live role: 1


if __name__ == "__main__":
    sys.exit(main())
