"""The stdout corpus: exit code and stdout of every verb on a fixed command set.

`stdout_corpus.txt` beside this file holds one entry per command of
`commands()`, in that order:

    $ mechfront <arguments>
    [exit <code>]
    <stdout, line for line>

The commands read the instance files of INSTANCE_FILES by bare name, so they
run in a directory that `write_instances` has filled, and no entry holds a
path.  `tests/test_stdout_corpus.py` replays every entry in process, through
`cli.run`, and compares it byte for byte.

    python tests/stdout_corpus.py replay
    python tests/stdout_corpus.py replay --exe mechfront 'opt -i uniform-3.txt'
    python tests/stdout_corpus.py record

`replay` checks every entry, or only the named ones; `--exe` runs them through
an installed console script instead, in a subprocess, so `main()`'s flush and
exit path are covered too.  `record` rewrites the file from the code on the
import path.  A re-recording changes values on purpose: the change that makes
one names each command whose entry moved.
"""
from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import os
import shlex
import subprocess
import tempfile

from mechfront import cli
from mechfront.instances import GeneratorSpec, save_instance

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stdout_corpus.txt")
HEADER = "$ mechfront "

# file name -> generator; the first ten are crossed with every verb and mechanism
INSTANCE_FILES = {
    "uniform-2.txt": "uniform:n=2",
    "uniform-3.txt": "uniform:n=3",
    "tradeoff-3-1.5.txt": "tradeoff:n=3,rho=1.5",
    "fp_pos-3-0.01.txt": "fp_pos:n=3,eps=0.01",
    "hat-3-2.txt": "hat:n=3,alpha=2",
    "tilde-3-2.txt": "tilde:n=3,alpha=2",
    "random-3x4-1000.txt": "random:n=3,m=4,seed=1000",
    "random-3x4-1001.txt": "random:n=3,m=4,seed=1001",
    "random-3x4-1002.txt": "random:n=3,m=4,seed=1002",
    "random-3x4-1003.txt": "random:n=3,m=4,seed=1003",
    "random-3x4-1004.txt": "random:n=3,m=4,seed=1004",
}
MECHS = ("fp", "sp", "spa:1.5", "spa:2", "spa:3")
PROBE_MECHS = ("fp", "sp", "spa:1", "spa:1.5", "spa:2", "spa:3")
# commands outside the crossed set: the console-script checks of CI, golden
# commands that tests pinned before the corpus existed, and a suite member
# the optimum search refuses at its node budget (exit 3)
EXTRA_COMMANDS = (
    "equilibria -i uniform-3.txt --mech spa:2 --grid 0.5,3",
    "frontier -n 3 --alphas 1,2",
    *(f"frontier -n {n} --alphas 1,1.3,2,2.7,4" for n in (2, 3, 4, 5)),
    *(f"frontier -n {n} --alphas 1,1.5,2,4" for n in (10, 20, 40)),
    "frontier -n 10 --alphas 45",
    "frontier -n 20 --alphas 50",
    "frontier -n 10 --alphas 2 --suite random:n=10,m=11,seed=1001",
    *(f"analyze -i random-3x4-1004.txt --mech {mech}" for mech in ("fp", "sp", "spa:2")),
    "probe --mech fp -n 2",
    "verify --suite anonymity",
    "verify --suite monotonicity-reverse",
)


def commands() -> list:
    """The corpus's commands, in its order."""
    cmds = [f"frontier -n {n} --alphas 1,1.5,2,4" for n in range(2, 9)]
    for name in list(INSTANCE_FILES)[:10]:
        cmds.append(f"opt -i {name}")
        for mech in MECHS:
            cmds += [f"analyze -i {name} --mech {mech}",
                     f"opt -i {name} --mech {mech}",
                     f"opt -i {name} --mech {mech} --objective max",
                     f"equilibria -i {name} --mech {mech}"]
    cmds += [f"probe --mech {mech} -n 3" for mech in PROBE_MECHS]
    cmds.append("verify --suite all")
    return cmds + list(EXTRA_COMMANDS)


def write_instances(directory: str) -> None:
    for name, spec in INSTANCE_FILES.items():
        save_instance(GeneratorSpec.parse(spec).build(), os.path.join(directory, name))


def load(path: str = CORPUS) -> dict:
    """command -> (exit code, stdout), in the file's order."""
    entries = {}
    with open(path) as f:
        for line in f:
            if line.startswith(HEADER):
                cmd = line[len(HEADER):-1]
                entries[cmd] = None
            elif entries[cmd] is None:
                entries[cmd] = (int(line.removeprefix("[exit ").removesuffix("]\n")), "")
            else:
                code, out = entries[cmd]
                entries[cmd] = (code, out + line)
    return entries


def run_in_process(cmd: str) -> tuple:
    """(exit code, stdout) of `cli.run` on the command; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(shlex.split(cmd))
    return code, out.getvalue()


def script_runner(exe: str):
    def run(cmd: str) -> tuple:
        done = subprocess.run([exe, *shlex.split(cmd)], capture_output=True, text=True)
        return done.returncode, done.stdout
    return run


def replay(entries: dict, run=run_in_process) -> None:
    """Run each entry's command in the working directory, which must hold the
    instance files; raise AssertionError naming every command whose exit
    code or stdout differs from its entry, with the first one's diff."""
    differ = []
    for cmd, (code, out) in entries.items():
        got_code, got = run(cmd)
        if (got_code, got) != (code, out):
            differ.append((cmd, code, out, got_code, got))
    if differ:
        cmd, code, out, got_code, got = differ[0]
        diff = "".join(difflib.unified_diff(out.splitlines(True), got.splitlines(True),
                                            "corpus", "now"))
        raise AssertionError(
            f"{len(differ)} command(s) differ from the corpus:\n"
            + "".join(f"  $ mechfront {d[0]}\n" for d in differ)
            + f"first: $ mechfront {cmd}: exit {got_code} (corpus {code})\n{diff}")


def record(directory: str, path: str = CORPUS) -> None:
    """Run every command in `directory` and write the corpus."""
    with open(path, "w") as f:
        for cmd in commands():
            code, out = run_in_process(cmd)
            # an entry must parse back, and must not depend on where it ran
            if (out and not out.endswith("\n") or directory in out
                    or any(line.startswith(HEADER) for line in out.splitlines())):
                raise ValueError(f"{cmd}: stdout cannot be a corpus entry:\n{out}")
            f.write(f"{HEADER}{cmd}\n[exit {code}]\n{out}")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("action", choices=("record", "replay"))
    p.add_argument("--exe", help="replay through this executable, not in process")
    p.add_argument("commands", nargs="*",
                   help="replay only these entries (default: all), e.g. 'opt -i uniform-3.txt'")
    args = p.parse_intermixed_args(argv)
    if args.action == "record" and (args.exe or args.commands):
        p.error("record runs every command, in process")
    entries = load() if args.action == "replay" else dict.fromkeys(commands())
    if args.commands:
        missing = [c for c in args.commands if c not in entries]
        if missing:
            p.error(f"not corpus entries: {missing}")
        entries = {c: entries[c] for c in args.commands}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_instances(directory)
        os.chdir(directory)
        try:
            if args.action == "record":
                record(directory)
            else:
                replay(entries, script_runner(args.exe) if args.exe else run_in_process)
        except AssertionError as e:
            raise SystemExit(f"{args.action}: {e}") from None
        finally:
            os.chdir(here)
    print(f"{args.action}: {len(entries)} commands")


if __name__ == "__main__":
    main()
