"""The static analyzer, exercised on toy specs with one seeded defect
each; the refinement check on the pristine controllers and on the
seeded protocol mutations; suppressions; and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.config import Protocol
from repro.network.messages import MsgType
from repro.protospec import (
    Impossible, ProtocolSpec, SideSpec, TransitionRow, get_spec,
)
from repro.staticcheck import (
    RefinementCheck, StaticCheckReport, SuppressionError, analyze_spec,
    load_suppressions,
)

ALL = ("wi", "pu", "cu", "hybrid", "mesi")


# --- toy-spec scaffolding ---------------------------------------------

def _unused_rest(*used):
    return tuple((m.name, "not part of the toy protocol")
                 for m in MsgType if m.name not in used)


def _toy(cache_rows=None, cache_impossible=None, cache_states=None,
         cache_events=None, home_rows=None, unused=None):
    """A two-message toy protocol that analyzes clean by default."""
    cache = SideSpec(
        name="cache", initial="I",
        states=cache_states or ("I", "V"),
        stable=("I", "V"),
        events=cache_events or ("READ_REPLY", "local:read"),
        rows=cache_rows if cache_rows is not None else (
            TransitionRow("I", "local:read", ("send:READ_REQ",)),
            TransitionRow("I", "READ_REPLY", ("install",), "V"),
        ),
        impossible=cache_impossible if cache_impossible is not None
        else (Impossible("V", "READ_REPLY", "no outstanding miss"),))
    home = SideSpec(
        name="home", initial="U", states=("U",), stable=("U",),
        events=("READ_REQ",),
        rows=home_rows if home_rows is not None else (
            TransitionRow("U", "READ_REQ", ("send:READ_REPLY",)),))
    spec = ProtocolSpec(
        protocol="toy", description="toy", cache=cache, home=home,
        unused_messages=(unused if unused is not None
                         else _unused_rest("READ_REQ", "READ_REPLY")))
    spec.validate()
    return spec


def _idents(findings, check):
    return [f.ident for f in findings if f.check == check]


def test_toy_spec_is_clean():
    assert analyze_spec(_toy()) == []


# --- one seeded defect per analyzer check -----------------------------

def test_missing_pair_is_a_completeness_finding():
    spec = _toy(cache_impossible=())     # forgot (V, READ_REPLY)
    idents = _idents(analyze_spec(spec), "completeness")
    assert idents == ["completeness:toy:cache:V:READ_REPLY"]


def test_row_plus_impossible_is_a_contradiction():
    spec = _toy(cache_rows=(
        TransitionRow("I", "local:read", ("send:READ_REQ",)),
        TransitionRow("I", "READ_REPLY", ("install",), "V"),
        TransitionRow("V", "READ_REPLY", ("install",)),
    ))
    idents = _idents(analyze_spec(spec), "contradiction")
    assert idents == ["contradiction:toy:cache:V:READ_REPLY"]


def test_dead_state_is_a_reachability_finding():
    spec = _toy(cache_states=("I", "V", "M"),
                cache_impossible=(
                    Impossible("V", "READ_REPLY", "no miss"),
                    Impossible("M", "READ_REPLY", "no miss"),
                ))
    idents = _idents(analyze_spec(spec), "reachability")
    assert idents == ["reachability:toy:cache:M"]


def test_duplicate_guard_is_an_ambiguity_finding():
    spec = _toy(cache_rows=(
        TransitionRow("I", "local:read", ("send:READ_REQ",)),
        TransitionRow("I", "READ_REPLY", ("install",), "V"),
        TransitionRow("I", "READ_REPLY", ("fill",), "V"),
    ))
    idents = _idents(analyze_spec(spec), "ambiguity")
    assert idents == ["ambiguity:toy:cache:I:READ_REPLY"]


def test_retry_cycle_without_fairness_is_a_progress_finding():
    spec = _toy(cache_rows=(
        TransitionRow("I", "local:read", ("send:READ_REQ",)),
        TransitionRow("I", "READ_REPLY", ("install",), "V",
                      guard="data"),
        TransitionRow("I", "READ_REPLY", ("send:READ_REQ",), "I",
                      guard="nack", retry=True),
    ))
    idents = _idents(analyze_spec(spec), "progress")
    assert idents == ["progress:toy:cache:I:READ_REPLY"]


def test_retry_cycle_with_fairness_is_clean():
    spec = _toy(cache_rows=(
        TransitionRow("I", "local:read", ("send:READ_REQ",)),
        TransitionRow("I", "READ_REPLY", ("install",), "V",
                      guard="data"),
        TransitionRow("I", "READ_REPLY", ("send:READ_REQ",), "I",
                      guard="nack", retry=True,
                      fairness="home serves in FIFO arrival order"),
    ))
    assert analyze_spec(spec) == []


def test_used_and_unused_is_a_vocabulary_contradiction():
    spec = _toy(unused=_unused_rest("READ_REQ")
                + (("READ_REPLY", "declared unused by mistake"),))
    idents = _idents(analyze_spec(spec), "vocabulary")
    assert idents == ["vocabulary:toy:contradiction:READ_REPLY"]


def test_unaccounted_msgtype_is_a_vocabulary_orphan():
    rest = _unused_rest("READ_REQ", "READ_REPLY")
    spec = _toy(unused=tuple(u for u in rest if u[0] != "INV"))
    idents = _idents(analyze_spec(spec), "vocabulary")
    assert idents == ["vocabulary:toy:orphan:INV"]


def test_dead_letter_send_is_a_routing_finding():
    spec = _toy(cache_rows=(
        TransitionRow("I", "local:read", ("send:READ_REQ",)),
        TransitionRow("I", "READ_REPLY", ("install", "send:INV"), "V"),
    ), unused=_unused_rest("READ_REQ", "READ_REPLY", "INV"))
    idents = _idents(analyze_spec(spec), "routing")
    assert idents == ["routing:toy:dead-letter:INV"]


def test_never_sent_event_is_a_routing_finding():
    spec = _toy(cache_events=("READ_REPLY", "INV", "local:read"),
                cache_impossible=(
                    Impossible("V", "READ_REPLY", "no miss"),
                    Impossible("I", "INV", "nothing cached"),
                    Impossible("V", "INV", "nobody sends it"),
                ),
                unused=_unused_rest("READ_REQ", "READ_REPLY", "INV"))
    idents = _idents(analyze_spec(spec), "routing")
    assert idents == ["routing:toy:never-sent:INV"]


# --- the shipped specs and controllers --------------------------------

@pytest.mark.parametrize("name", ALL)
def test_shipped_specs_analyze_clean(name):
    assert analyze_spec(get_spec(name)) == []


@pytest.mark.parametrize("name", ALL)
def test_pristine_controllers_conform(name):
    """Every transition of every schedule the litmus sweep explores
    under the protocol is a row of its table."""
    from repro.experiments.staticcheck import refinement_over_litmus

    check = refinement_over_litmus([Protocol.parse(name)])
    assert list(check.findings) == []
    assert sum(check.transitions.values()) > 100
    assert any(check.hits.values())


def _mutant_findings(name):
    """The refinement findings of a seeded mutant's witness program."""
    from repro.modelcheck import explore, get_program
    from repro.modelcheck.mutations import get_mutation

    mut = get_mutation(name)
    check = RefinementCheck()
    with check.recording():
        explore(get_program(mut.program), protocol=mut.protocol,
                mutation=name, minimize=False)
    return list(check.findings.values())


@pytest.mark.parametrize("mutation, handler, row", [
    pytest.param(name, handler, row, id=name)
    for name, handler, row in (
        ("wi-drop-inv-ack", "modelcheck/mutations.py", "protospec/wi.py"),
        ("wi-skip-invalidation", "protocols/wi.py", "protospec/wi.py"),
        ("pu-upd-prop-overwrite", "modelcheck/mutations.py",
         "protospec/tables.py"),
        ("cu-counter-stuck", "protocols/update.py",
         "protospec/tables.py"))])
def test_seeded_mutations_are_caught_by_the_refinement_check(
        mutation, handler, row):
    """Each mutant's witness program yields a refinement finding that
    names the handler's file:line and the row's; the pristine program
    yields none."""
    findings = _mutant_findings(mutation)
    assert findings, f"{mutation} produced no refinement finding"
    assert all(f.check == "refinement" for f in findings)
    assert all(f.file == f"src/repro/{handler}" and f.line > 0
               for f in findings), [f.location() for f in findings]
    assert all(f"(row at src/repro/{row}:" in f.detail
               for f in findings), [f.detail for f in findings]


def test_refinement_files_do_not_depend_on_the_working_directory(
        monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    files = {f.file for f in _mutant_findings("wi-skip-invalidation")}
    assert files == {"src/repro/protocols/wi.py"}


# --- suppressions -----------------------------------------------------

def _manifest(tmp_path, entries):
    path = tmp_path / "suppressions.json"
    path.write_text(json.dumps({"suppressions": entries}))
    return str(path)


def test_suppressed_finding_does_not_fail_the_report(tmp_path):
    report = StaticCheckReport()
    report.extend(analyze_spec(_toy(cache_impossible=())))
    assert not report.ok
    table = load_suppressions(_manifest(tmp_path, [
        {"id": "completeness:toy:cache:V:READ_REPLY",
         "reason": "known hole, tracked separately"}]))
    report.apply_suppressions(table)
    assert report.ok
    assert report.findings[0].suppressed
    assert "known hole" in report.findings[0].suppress_reason


def test_stale_suppression_is_itself_a_finding(tmp_path):
    report = StaticCheckReport()
    table = load_suppressions(_manifest(tmp_path, [
        {"id": "completeness:toy:cache:GONE:INV",
         "reason": "fixed long ago"}]))
    report.apply_suppressions(table)
    stale = report.by_check("stale-suppression")
    assert len(stale) == 1
    assert not report.ok          # stale entries must be cleaned up


@pytest.mark.parametrize("entries", [
    [{"id": "x"}],                           # missing reason
    [{"reason": "no id"}],                   # missing id
    [{"id": "x", "reason": "a"},
     {"id": "x", "reason": "b"}],            # duplicate
])
def test_bad_manifest_is_rejected(tmp_path, entries):
    with pytest.raises(SuppressionError):
        load_suppressions(_manifest(tmp_path, entries))


# --- the CLI ----------------------------------------------------------

def test_cli_clean_tree_exits_zero(capsys):
    from repro.experiments.staticcheck import main

    assert main(["--protocol", "wi", "--quiet"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_unknown_protocol_suggests_and_exits_two(capsys):
    from repro.experiments.staticcheck import main

    with pytest.raises(SystemExit) as exc:
        main(["--protocol", "wii"])
    assert exc.value.code == 2
    assert "did you mean 'wi'" in capsys.readouterr().err


def test_cli_bad_manifest_exits_two(tmp_path, capsys):
    from repro.experiments.staticcheck import main

    bad = tmp_path / "bad.json"
    bad.write_text('{"suppressions": [{"id": "x"}]}')
    assert main(["--protocol", "wi", "--suppressions",
                 str(bad)]) == 2
    assert "bad suppression manifest" in capsys.readouterr().err


def test_cli_json_report_artifact(tmp_path):
    from repro.experiments.staticcheck import main

    out = tmp_path / "report.json"
    assert main(["--protocol", "wi", "--quiet", "--json",
                 str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["protocols"] == ["wi"]


def test_cli_dump_specs_round_trips(tmp_path):
    from repro.experiments.staticcheck import main

    assert main(["--protocol", "pu", "--quiet", "--dump-specs",
                 str(tmp_path)]) == 0
    dumped = ProtocolSpec.loads((tmp_path / "pu.json").read_text())
    assert dumped == get_spec("pu")


def test_modelcheck_cli_unknown_program_suggests(capsys):
    from repro.experiments.modelcheck import main

    assert main(["--program", "barier"]) == 2
    err = capsys.readouterr().err
    assert "unknown program 'barier'" in err
    assert "did you mean barrier" in err


def test_modelcheck_cli_unknown_mutation_suggests(capsys):
    from repro.experiments.modelcheck import main

    assert main(["--mutants", "--mutant", "wi-drop-invack"]) == 2
    err = capsys.readouterr().err
    assert "did you mean" in err and "wi-drop-inv-ack" in err
