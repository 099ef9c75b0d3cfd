"""The benchmark's workloads, checked in process at seed 1.

Each generator states the diagnostics its program must produce, from how the
program was built. A front-end or checker change that breaks one of them
would make every benchmark check fail; this catches it in the test suite.
The whole ``--json`` output is pinned too, by its sha256 with the file name
normalised, so a refactor that changes one byte of it fails here; so is the
output of every corpus file, under default trust and under ``--no-trust-main``.
Update a digest only together with a CHANGES.md line that says why the output
changed.
"""

import gc
import hashlib
import json
import sys
from collections import Counter

import pytest

from minijif import checker as checker_module
from minijif.checker import check_program
from minijif.cli import main
from minijif.labels import EMPTY, join, label_to_text
from minijif.parser import parse_label, parse_program
from minijif.principals import PrincipalHierarchy
from conftest import bench_gen, corpus_files

gen = bench_gen()

OUTPUT_SHA256 = {
    "deep_nesting": "d8014158bccb9f59e5a67cc25fb7df5b354c2f57899d73ca6b899301425d5634",
    "large_source": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "wide_principals": "f9db662973a52c100e37c35ef0cf46d60393d8b03f6cc50d924f0bf6aa611ef5",
}

# per corpus file: (default trust, --no-trust-main)
CORPUS_SHA256 = {
    "argument_leak": ("9bdfae26eca27640992b5eebca9c5f560a55d3ed1c0b94aa81824bb526e9c92a",
                      "9bdfae26eca27640992b5eebca9c5f560a55d3ed1c0b94aa81824bb526e9c92a"),
    "arity": ("cc841015a11ecbb675401cd0089b8da0d9f75e1a3cb53630d6e602b1cdc127e4",
              "cc841015a11ecbb675401cd0089b8da0d9f75e1a3cb53630d6e602b1cdc127e4"),
    "authority_claim": ("fdc49c1b3cc849c1f5a6a7274b4098b3035e83dcf1fcaeb04c4426ceeb3d5bdd",
                        "fdc49c1b3cc849c1f5a6a7274b4098b3035e83dcf1fcaeb04c4426ceeb3d5bdd"),
    "booking_bob_leak": ("73f7eaee4c1b51e55b81919e11c5386a8462a7f868ee071c5d4fa4f5de9e30aa",
                         "a56c278fe7afe086181e00f6621aa910b3d5ce932b20d2b85a9d4ea9b052ca14"),
    "booking_no_authority": ("b0ae404b795ba984341ccae6f0d84080fef138caad021701f0d76bfed371b900",
                             "7aa27b6e0328e8bd69a96c2b2b59b9bc4f2e74609cc120bf693594011153610e"),
    "booking_no_declassify": ("24a06442f5a2acf5f5bb6b06e813fbe787b80e277e80031b3b3884f1d95f01c7",
                              "8ee95de585c7098074cb1d99c1ca6ea5c7b58a79e4991d0fe8882fc37b0d488e"),
    "booking_ok": ("37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
                   "61640f74da366510bdb5b1da792c55c38cd0585c1ca9e38335f8be76debf814a"),
    "call_receiver_leak": ("99c7a4f33d142d9861d23988f27e34b7852e7fbe5954e995301963b6863346b6",
                           "99c7a4f33d142d9861d23988f27e34b7852e7fbe5954e995301963b6863346b6"),
    "creator_authority": ("608d66b63faee358453e7fb73778c6b77e42decbccc43a0a9e4e9ccbb05d4e27",
                          "608d66b63faee358453e7fb73778c6b77e42decbccc43a0a9e4e9ccbb05d4e27"),
    "declassify_from": ("61605472580e8a5f8c10dea20cde603f458e66f9e3ecf33662a8dd754b00d91e",
                        "61605472580e8a5f8c10dea20cde603f458e66f9e3ecf33662a8dd754b00d91e"),
    "declassify_integrity": ("1c851ca64225ffdf422792a2923c9d54efa3d7e3901d4760cf7a33784bc120de",
                             "1c851ca64225ffdf422792a2923c9d54efa3d7e3901d4760cf7a33784bc120de"),
    "delegation": ("37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
                   "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "early_return_leak": ("877eaf40e17c97fa2d96457824c4bd82fd0d6135fe9c0c2fcc10830b854a7302",
                          "877eaf40e17c97fa2d96457824c4bd82fd0d6135fe9c0c2fcc10830b854a7302"),
    "end_label": ("a8c0b1d001f07ae1aa850db9a1438c133674c75284dcbb0148302920e8f49f0f",
                  "a8c0b1d001f07ae1aa850db9a1438c133674c75284dcbb0148302920e8f49f0f"),
    "field_write_leak": ("097a04477425ef871cb0d0a1498643d868fcfc42831b899dc0508755e4c3afea",
                         "097a04477425ef871cb0d0a1498643d868fcfc42831b899dc0508755e4c3afea"),
    "generic_scope": ("53f88538e710c28eb8dce535a597f4c9e34d49fd2e41741a9315a22be3b3f3d9",
                      "53f88538e710c28eb8dce535a597f4c9e34d49fd2e41741a9315a22be3b3f3d9"),
    "implicit_flow": ("d1982cb7ac29e50869dab5e17904ada50c406c0fa8c5e583e59d43641cf99a99",
                      "d1982cb7ac29e50869dab5e17904ada50c406c0fa8c5e583e59d43641cf99a99"),
    "label_variables": ("241b503473c840bdb9a7212d6f3175005cefc232920ead0e4d9e12465c478c3a",
                        "241b503473c840bdb9a7212d6f3175005cefc232920ead0e4d9e12465c478c3a"),
    "loop_condition_leak": ("eb8c29e93d7f64534cc067007fdf2067efd3c4c78f916bd381d613a8e4365f05",
                            "eb8c29e93d7f64534cc067007fdf2067efd3c4c78f916bd381d613a8e4365f05"),
    "loop_return_leak": ("141c4d2fbe3c69607032da7e6a85f9a23429be65a9439a31c51976167791c0e9",
                         "141c4d2fbe3c69607032da7e6a85f9a23429be65a9439a31c51976167791c0e9"),
    "nested_loop_return_leak": ("35e7e6592f388f00c071007a2366be9c71cd77792db4deb857318bbd04cc0bf9",
                                "35e7e6592f388f00c071007a2366be9c71cd77792db4deb857318bbd04cc0bf9"),
    "nonrobust_declassify": ("37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
                             "68eed49f36ac4c8557fe9ddd456a0246d6ec0cde4b8c6f6fe4f67ff90b6321e7"),
    "pc_mismatch": ("bbbe5dd69889aeb8a3fb5799c4e534583f6495d4c3e73c8bfcd0ad5ab1bf83e4",
                    "bbbe5dd69889aeb8a3fb5799c4e534583f6495d4c3e73c8bfcd0ad5ab1bf83e4"),
    "secret_declaration": ("37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
                           "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "short_circuit_leak": ("e24a98419aa6d5a725689f118be6b7192535160b9d60d5abe6fe5f84670d8874",
                           "e24a98419aa6d5a725689f118be6b7192535160b9d60d5abe6fe5f84670d8874"),
    "termination_channel": ("37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
                            "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    "type_errors": ("8bea7663d936a11e44b80b1f504d6b0ef916ca222b81f4f1faf4285074309a7c",
                    "8bea7663d936a11e44b80b1f504d6b0ef916ca222b81f4f1faf4285074309a7c"),
    "undefined_names": ("4f6fbc40c18d7a13981bc9846cea80e1adb114260b6d40d9b32d73004755c845",
                        "4f6fbc40c18d7a13981bc9846cea80e1adb114260b6d40d9b32d73004755c845"),
    "unknown_method": ("8955344fd53d8258066cef1c2489053548d54aa208c6763d2466bbdaca65aa93",
                       "8955344fd53d8258066cef1c2489053548d54aa208c6763d2466bbdaca65aa93"),
}


def _digest(out: str, path) -> str:
    normalised = out.replace(json.dumps(str(path)), json.dumps(path.name))
    return hashlib.sha256(normalised.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_workload_verdict_matches_generator(workload, tmp_path, capsys):
    source, expected = gen.generate(workload, 1)
    path = tmp_path / f"{workload}.mjif"
    path.write_text(source, encoding="utf-8")
    code = main(["check", "--json", str(path)])
    out, err = capsys.readouterr()
    assert err == ""
    assert code == (1 if expected else 0)
    diagnostics = json.loads(out)
    actual = sorted((d["code"], d["span"]["start"][0]) for d in diagnostics)
    assert actual == expected
    assert _digest(out, path) == OUTPUT_SHA256[workload]
    # a label the checker computes lists each `;` component once; the parser
    # drops repeated components, so such a label prints back as it was read
    for text in {d[k] for d in diagnostics for k in ("from", "to") if d[k] is not None}:
        assert label_to_text(parse_label(text)) == text


@pytest.mark.parametrize("path", corpus_files(), ids=lambda p: p.stem)
def test_corpus_output_is_pinned(path, capsys):
    digests = []
    for flags in ([], ["--no-trust-main"]):
        main(["check", "--json", *flags, str(path)])
        out, err = capsys.readouterr()
        assert err == ""
        digests.append(_digest(out, path))
    assert tuple(digests) == CORPUS_SHA256[path.stem]


# Per workload at seed 1, as the parser and the body walk made them before each
# common construct (a label, an operand, a local read, a statement) took one
# Python frame: the Python-level calls of parsing it, of checking it, and the
# calls of `checker.join` in checking it.
CALLS_BEFORE = {
    "deep_nesting": (34_991, 26_724, 5_864),
    "large_source": (149_469, 83_365, 18_000),
    "wide_principals": (92_705, 49_774, 3_000),
}


def python_calls(fn, *args) -> Counter:
    """The Python-level calls that ``fn(*args)`` makes, per code object:
    ``sys.setprofile``'s "call" events, with the cyclic collector off, so that
    no collection runs finalizers in between."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


@pytest.mark.parametrize("workload", sorted(CALLS_BEFORE))
def test_parse_and_check_make_fewer_python_calls(workload, monkeypatch):
    # counters, not timings: upper bounds that hold on every Python version
    # the package supports, however fast the host is
    source = gen.generate(workload, 1)[0]
    parse_before, check_before, joins_before = CALLS_BEFORE[workload]
    # the same tokens either way: half the calls is half the calls per token
    assert python_calls(parse_program, source).total() <= parse_before / 2
    program = parse_program(source)
    assert python_calls(check_program, program).total() < check_before
    joins = 0
    join = checker_module.join

    def counting(*args):
        nonlocal joins
        joins += 1
        return join(*args)

    monkeypatch.setattr(checker_module, "join", counting)
    check_program(program)
    assert joins < joins_before


def test_policies_are_interpreted_without_a_call_per_principal():
    # Before a policy's members were one C-level OR, checking wide_principals
    # at seed 1 made 35,774 Python calls, 12,000 of them `actor_mask`: one per
    # owner, listed principal and `everyone` of each interpreted policy.  The
    # workload has no authority or declassify record, which still call it.
    calls = python_calls(check_program, parse_program(gen.generate("wide_principals", 1)[0]))
    assert calls.total() <= 35_774 / 2
    assert calls[PrincipalHierarchy.actor_mask.__code__] == 0


# Per workload at seed 1, the records that reach `decide`: before the body pass
# tested each record at its site, it made 2,000 / 584 / 6,750, and `decide`
# passed 1,000 / 104 / 6,750 of them unread.
DECIDED_RECORDS = {"deep_nesting": 480, "large_source": 0, "wide_principals": 1_000}


@pytest.mark.parametrize("workload", sorted(DECIDED_RECORDS))
def test_decide_sees_only_records_a_hierarchy_could_fail(workload, decided):
    check_program(parse_program(gen.generate(workload, 1)[0]))
    assert len(decided) == DECIDED_RECORDS[workload]
    for rule, value, pc, target, span, names in decided:
        if rule != "new-authority":  # its value is a principal, which no pc joins
            source = join(value, pc)
            assert source is not EMPTY and source is not target
