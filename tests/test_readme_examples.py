"""Every `shiftedq ...` command in README.md keeps its exit code and the
sha256 of its stdout bytes.

The commands are read from the fenced code blocks of README.md (backslash
continuations joined) and run in-process through ``shiftedq.cli.main``.  A
README edit that adds, removes or changes an example must update ``EXPECTED``.
"""

import hashlib
import io
import os
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from shiftedq import cli

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")

# command line -> (exit code, sha256 of stdout)
EXPECTED = {
    'shiftedq classify-sl2 --lambda 2 --zroots "1:3,-1" --mu 0':
        (0, 'd3926d46ec9aa9fa47a1949c244d76440171d2f35300e9af69df8d3fede690f3'),
    'shiftedq classify-sl2 --lambda 2 --zroots "1:3,-1" --mu -2':
        (0, '4df559e1ef4cb3b1436c26b7c94da5a64bad0dc088bf197ae1ef385fc03d5607'),
    'shiftedq truncate --type B2 --lambda 0,1 --zroots "2:0" --mu 0,0':
        (0, '780ae286815f2e37d4df4491682260339e128e62e00fbfd63f0078cd2d238973'),
    'shiftedq conjecture --type B2 --zroots "2:0" --text':
        (0, 'cd64d9180b47b394c86ae23c8f1fc8d07948457ea3868a40034cc594641e4a4a'),
    'shiftedq conjecture --type A2 --zroots "1:3" --text':
        (0, '6b12e3c5149e294b5194a9adea4979ea7efa9c5d80c2462076653821cfec6917'),
    'shiftedq truncate --type A2 --lambda 1,0 --zroots "1:0" --mu=-2,0 --text':
        (0, '5f7e1abd88bc5d1dabc8478e551a16f5d6bba4589adefe03ca7f7e967dc18612'),
    'shiftedq qchar --type A1 --family neg_prefund_sl2 --shift 0 --depth 4':
        (0, 'e5b1a0d4ee3471e0b1d32fb3a1095e657e5151b61fab69d70afbf28e2d72d5d7'),
    'shiftedq qchar --type B2 --family fm --head "2:0" --depth 12':
        (0, '9a70b9b7c7826974f1e3911ff0c80729b192d44e7d6565195f9512c1e16164ad'),
    'shiftedq qchar --type A1 --family simple_sl2 --monomial \'{"exps":[[1,-1,1],[1,3,-1]],"const":[[2,1,0]]}\'':
        (0, '35a3e59ec60c5dd09f44b6ac6caf407a74372dbe334e0f51c85ea848e0860b65'),
    'shiftedq verify-relations --kind eval_sl2 --cutoff 12 --window 6':
        (0, 'bc3f692ac2d11696517804490eaa45cd63a910617d0c3ddb44a06dfbed2cf9d1'),
    'shiftedq verify-relations --kind psitilde --type B2 --node 1 --cutoff 12 --window 6':
        (0, 'd7bf300acf84c7dd48b1be34e397a1d59e7005be0d9039b420e9c0441edd8dd4'),
    'shiftedq verify-relations --kind coproduct_plus --gamma-exp 2 --beta-exp -1':
        (0, '06135f224b671e7907fcc45fe5a5da0850b5bf3e48407d2cde9ed405bd24a18e'),
    'shiftedq factor --type B2 --basis lambda --monomial \'{"exps":[[1,-6,1],[1,0,-1],[2,-4,-1],[2,-2,1],[2,0,1]],"const":[[0,1,0],[0,1,0]]}\'':
        (0, '6f5dc5f77e6a0240197226b0134c43aca7089a69bba5dca3c742c5f59e3a0ff7'),
    'shiftedq dominant --type A1 --monomial \'{"exps":[[1,-1,1],[1,3,-1],[1,5,1]],"const":[[0,1,0]]}\'':
        (0, 'b1c7530c3e66895eb5b05a500ded8e0478a2b663b9eb7e080386e7f95c2b7bba'),
    'shiftedq truncfd --type B2 --psi \'{"exps":[[1,-2,1],[1,2,-1]],"const":[[0,1,0],[0,1,0]]}\'':
        (0, 'fc013defc4c5f464712742f7f4b452a7296f1761398fb5afabca52c1e2c75433'),
}


def readme_commands(path=README):
    """The `shiftedq` command lines of the fenced code blocks, in order."""
    cmds = []
    in_block = False
    pending = ""
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("```"):
                in_block = not in_block
                continue
            if not in_block:
                continue
            line = pending + line.strip()
            if line.endswith("\\"):
                pending = line[:-1]
                continue
            pending = ""
            if line.startswith("shiftedq "):
                cmds.append(line)
    return cmds


def run_command(line):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(shlex.split(line)[1:])
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_readme_lists_the_pinned_examples():
    assert readme_commands() == list(EXPECTED)


@pytest.mark.parametrize("line", list(EXPECTED))
def test_readme_example_bytes(line):
    assert run_command(line) == EXPECTED[line]
