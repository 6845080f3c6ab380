"""Print the sha256 of every output file of the four `hibsim` commands.

Each command runs through the CLI at its default sizes, into its own
folder of a temporary directory (its warnings are dropped), and one line
is printed per file:

    <sha256>  <command>/<file>

    python3 tools/output_digests.py [--threads N] [--seed S] [--config PATH]
                                    [--a3-offset-db=X[,X...]]

`--config` hands one YAML scenario file to every command, and
`--a3-offset-db` the A3 offset to the mobility command. A comma list of
offsets, such as `--a3-offset-db=-2,0,3,6`, runs the mobility command once
per offset and prints one block each, its lines named
`mobility@<offset>/<file>`.

Two source trees that print the same lines wrote the same bytes. The
package is imported from the `src` beside this script's folder, so a
copy of the tree digests its own code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hibsim import cli  # noqa: E402

# extra CLI arguments per command; none means the CLI defaults
COMMANDS: dict[str, list[str]] = {
    "coupling-loss": [],
    "sinr-sweep": [],
    "throughput-sweep": [],
    "mobility": [],
}


def digests(
    seed: int,
    threads: int,
    commands: dict[str, list[str]] = COMMANDS,
    config: str | None = None,
) -> list[str]:
    """Run each command, with `--config config` when given, and return
    `<sha256>  <command>/<file>` per file written, in command order, then
    file order."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for command, extra in commands.items():
            out = Path(tmp) / command
            argv = [command, "--seed", str(seed), "--threads", str(threads), "--out", str(out)]
            argv += [] if config is None else ["--config", config]
            printed, errors = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(errors):
                code = cli.main(argv + extra)
            if code != 0:
                raise RuntimeError(
                    f"hibsim {' '.join(argv + extra)} exited {code}: {errors.getvalue()}"
                )
            for path in map(Path, printed.getvalue().splitlines()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {command}/{path.name}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    parser.add_argument("--config", help="YAML scenario file passed to every command")
    parser.add_argument(
        "--a3-offset-db",
        help="A3 offset passed to the mobility command, or a comma list of offsets",
    )
    args = parser.parse_args(argv)
    offsets = [None] if args.a3_offset_db is None else args.a3_offset_db.split(",")
    commands = {c: extra for c, extra in COMMANDS.items() if c != "mobility"}
    lines = digests(args.seed, args.threads, commands, args.config)
    for offset in offsets:
        extra = COMMANDS["mobility"] + ([] if offset is None else ["--a3-offset-db", offset])
        block = digests(args.seed, args.threads, {"mobility": extra}, args.config)
        if len(offsets) > 1:
            block = [line.replace("  mobility/", f"  mobility@{offset}/") for line in block]
        lines += block
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
