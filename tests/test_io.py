"""Canonical serialization: byte round-trips, parse errors, manifests, curves."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from ejsp.generator import generate_instance, generate_suite
from ejsp.io import (
    ParseError,
    ValidationError,
    export_curves,
    instance_file_name,
    read_instance,
    read_instance_file,
    read_manifest,
    read_suite,
    instance_to_json,
    write_curves,
    write_instance,
    write_suite,
)
from ejsp.model import DistSpec, InstanceParams
from ejsp.speed import energy_percentage, time_fraction
from ejsp.variants import paper_variants, project_speeds, relax_dates

import io_reference

# speed counts whose grid multipliers are exact in 6 decimal digits, so they
# survive the %.6f text form bit-for-bit (dyadic spacing with <= 6 digits)
DYADIC_SPEEDS = [1, 2, 3, 5, 6, 9, 11, 17, 21, 33, 41]


def build(speeds=5, rrdd="tight", kind="uniform", seed=8, jobs=3, machines=3):
    p = InstanceParams(
        count=1, jobs=jobs, machines=machines, tasks_per_job=machines,
        speeds=speeds, dist=DistSpec(kind), rrdd=rrdd, seed=seed,
    )
    return generate_instance(p, 0)


class TestWriteInstance:
    def test_canonical_and_ascii(self):
        payload = write_instance(build())
        assert payload == write_instance(build())
        text = payload.decode("ascii")
        assert "\r" not in text
        assert text.endswith("\n")

    def test_header_order(self):
        lines = write_instance(build()).decode().splitlines()
        keys = [line.split(" ", 1)[0] for line in lines[:12]]
        assert keys == [
            "jobs", "machines", "tasks", "speeds", "multipliers", "seed",
            "index", "dist", "rrdd", "variant", "prng", "version",
        ]

    def test_unbounded_due_sentinel(self):
        text = write_instance(build(rrdd="none")).decode()
        task_line = text.splitlines()[12]
        assert task_line.split()[5] == "inf"

    def test_payload_injective(self):
        a = build(seed=1)
        b = build(seed=2)
        assert write_instance(a) != write_instance(b)


class TestRoundTrip:
    @pytest.mark.parametrize("speeds", DYADIC_SPEEDS)
    def test_exact_for_representable_grids(self, speeds):
        inst = build(speeds=speeds)
        assert read_instance(write_instance(inst)) == inst

    @pytest.mark.parametrize("rrdd", ["none", "loose", "tight"])
    @pytest.mark.parametrize("kind", ["uniform", "exponential", "gaussian"])
    def test_all_modes(self, rrdd, kind):
        inst = build(rrdd=rrdd, kind=kind)
        assert read_instance(write_instance(inst)) == inst

    def test_variants_round_trip(self):
        original = build()
        for variant in paper_variants(original):
            assert read_instance(write_instance(variant)) == variant
        relaxed = relax_dates(original)
        assert read_instance(write_instance(relaxed)) == relaxed
        combo = relax_dates(project_speeds(original, (1, 2)))
        assert read_instance(write_instance(combo)) == combo

    def test_lenient_speed_tokens_share_the_canonical_vector(self):
        inst = build()
        lines = write_instance(inst).decode().splitlines()
        # the second task gets the first one's speed vector, once written
        # with a leading zero and a plus sign, which int() accepts
        first = lines[12].split(" ")
        second = lines[13].split(" ")[:6] + ["0" + first[6], "+" + first[7]] + first[8:]
        lines[13] = " ".join(second)
        read = read_instance("\n".join(lines) + "\n")
        assert read.vector_id[:2] == (0, 0)
        assert len(set(read.vectors)) == len(read.vectors)
        assert read.jobs[0][1].times == inst.jobs[0][0].times

    def test_lenient_labels_read_as_integers(self):
        inst = build()
        lines = write_instance(inst).decode().splitlines()
        # job and position labels in a form int() accepts, as in any other
        # integer field
        fields = lines[13].split(" ")
        lines[13] = " ".join(["+" + fields[0], "0" + fields[1], *fields[2:]])
        assert read_instance("\n".join(lines) + "\n") == inst

    def test_accepts_str_input(self):
        inst = build()
        assert read_instance(write_instance(inst).decode()) == inst

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        speeds=st.sampled_from(DYADIC_SPEEDS),
        rrdd=st.sampled_from(["none", "loose", "tight"]),
        kind=st.sampled_from(["uniform", "exponential", "gaussian"]),
    )
    def test_round_trip_random(self, seed, speeds, rrdd, kind):
        inst = build(seed=seed, speeds=speeds, rrdd=rrdd, kind=kind, jobs=2, machines=2)
        assert read_instance(write_instance(inst)) == inst


class TestParseErrors:
    def test_truncated_file(self):
        payload = write_instance(build()).decode().splitlines()
        truncated = "\n".join(payload[:-2]) + "\n"
        with pytest.raises(ParseError) as err:
            read_instance(truncated)
        assert err.value.line > 0

    def test_bad_integer_reports_line(self):
        payload = write_instance(build()).decode()
        broken = payload.replace("jobs 3", "jobs three", 1)
        with pytest.raises(ParseError) as err:
            read_instance(broken)
        assert err.value.line == 1

    def test_wrong_header_key(self):
        payload = write_instance(build()).decode()
        broken = payload.replace("machines ", "machine ", 1)
        with pytest.raises(ParseError) as err:
            read_instance(broken)
        assert err.value.line == 2

    def test_trailing_content(self):
        payload = write_instance(build()).decode() + "extra line\n"
        with pytest.raises(ParseError):
            read_instance(payload)

    def test_task_line_field_count(self):
        lines = write_instance(build()).decode().splitlines()
        lines[12] = lines[12] + " 99"
        with pytest.raises(ParseError) as err:
            read_instance("\n".join(lines) + "\n")
        assert err.value.line == 13

    @pytest.mark.parametrize("token", ["x", "inf"])
    @pytest.mark.parametrize("column", [2, 6, -1])  # machine, first time, last energy
    def test_bad_task_token_reports_line(self, token, column):
        lines = write_instance(build()).decode().splitlines()
        # a later task line, whose speed vector an earlier line may share
        parts = lines[15].split(" ")
        parts[column] = token
        lines[15] = " ".join(parts)
        with pytest.raises(ParseError) as err:
            read_instance("\n".join(lines) + "\n")
        assert err.value.line == 16
        assert repr(token) in str(err.value)

    @pytest.mark.parametrize("row", [12, 13], ids=["first-use", "memo-hit"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda f: f[:-1], "expected 16 fields on task line, got 15"),
            (lambda f: f + ["99"], "expected 16 fields on task line, got 17"),
            (lambda f: f[:8] + ["7"] + f[8:], "expected 16 fields on task line, got 17"),
            # a field count fault is named before a bad token
            (lambda f: f[:2] + ["x"] + f[2:], "expected 16 fields on task line, got 17"),
            (lambda f: f[:3], "expected 16 fields on task line, got 3"),
            (lambda f: f[:7] + ["x"] + f[8:], "bad integer for time: 'x'"),
            (lambda f: f[:-1] + ["1.5"], "bad integer for energy: '1.5'"),
            (lambda f: f[:2] + ["x"] + f[3:], "bad integer for machine: 'x'"),
            (lambda f: f[:5] + ["-"] + f[6:], "bad integer for due: '-'"),
        ],
        ids=[
            "15-fields", "17-fields", "extra-speed-token", "extra-bad-token",
            "3-fields", "bad-time", "bad-energy", "bad-machine", "bad-due",
        ],
    )
    def test_task_line_faults_named_with_shared_vectors(self, row, edit, message):
        lines = write_instance(build()).decode().splitlines()
        # give the second task line the first one's speed vector, so the
        # reader meets that vector text again on line 14
        first = lines[12].split(" ")
        lines[13] = " ".join(lines[13].split(" ")[:6] + first[6:])
        read_instance("\n".join(lines) + "\n")  # still valid as it stands
        lines[row] = " ".join(edit(lines[row].split(" ")))
        with pytest.raises(ParseError) as err:
            read_instance("\n".join(lines) + "\n")
        assert str(err.value) == f"line {row + 1}: {message}"

    def test_non_ascii_digits_in_str_input(self):
        lines = write_instance(build()).decode().splitlines()
        parts = lines[12].split(" ")
        assert parts[3] == "61"  # the first task's base time
        parts[3] = "\u0666\u0661"  # the same number in Arabic-Indic digits
        lines[12] = " ".join(parts)
        text = "\n".join(lines) + "\n"
        assert int(parts[3]) == 61  # which int() alone would accept
        with pytest.raises(ParseError) as err:
            read_instance(text)
        assert str(err.value) == "line 13: non-ASCII byte 0xd9"
        with pytest.raises(ParseError) as as_bytes:
            read_instance(text.encode("utf-8"))
        assert str(as_bytes.value) == str(err.value)

    def test_monotonicity_breach_is_validation_error(self):
        inst = build(speeds=2)
        lines = write_instance(inst).decode().splitlines()
        parts = lines[12].split()
        # swap the two time columns so times increase with speed
        parts[6], parts[7] = parts[7], parts[6]
        lines[12] = " ".join(parts)
        with pytest.raises(ValidationError) as err:
            read_instance("\n".join(lines) + "\n")
        assert any("speed monotonicity" in v for v in err.value.violations)


def _reading(read, data: bytes):
    """What a reader makes of `data`: the parsed content or the failure."""
    try:
        inst = read(data)
    except ParseError as exc:
        return ("parse error", exc.line, str(exc))
    except ValidationError as exc:
        return ("invalid", exc.violations)
    return ("read", inst.jobs, inst.machines, inst.speed_multipliers, inst.metadata)


@st.composite
def mutated_files(draw):
    """A valid file of any date mode and variant with one to three edits:
    a byte flipped, inserted or deleted, a token replaced by a small
    integer, or a line duplicated or dropped."""
    machines = draw(st.integers(1, 3))
    inst = build(
        speeds=draw(st.integers(1, 5)),
        rrdd=draw(st.sampled_from(["none", "loose", "tight"])),
        kind=draw(st.sampled_from(["uniform", "exponential", "gaussian"])),
        seed=draw(st.integers(0, 2**64 - 1)),
        jobs=draw(st.integers(1, 3)),
        machines=machines,
    )
    if draw(st.booleans()):
        inst = relax_dates(inst)
    subset = draw(st.sets(st.integers(0, inst.n_speeds - 1)))
    if subset:
        inst = project_speeds(inst, sorted(subset))
    data = bytearray(write_instance(inst))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "insert", "delete", "token", "token", "dup", "drop"]))
        # most edits land in the task block, after the 12 header lines
        in_tasks = draw(st.integers(0, 3)) > 0
        if kind in ("flip", "insert", "delete"):
            head = len(b"".join(bytes(data).split(b"\n", 12)[:12])) + 12 if in_tasks else 0
            at = draw(st.integers(min(head, len(data) - 1), len(data) - (kind != "insert")))
            # half the new bytes are digits, which keep a number a number
            byte = draw(st.integers(0, 255) | st.integers(ord("0"), ord("9")))
            if kind == "flip":
                data[at] = byte if byte != data[at] else byte ^ 0x80
            elif kind == "insert":
                data.insert(at, byte)
            else:
                del data[at]
            continue
        lines = bytes(data).split(b"\n")
        k = draw(st.integers(min(12 if in_tasks else 0, len(lines) - 1), len(lines) - 1))
        if kind == "token":
            tokens = lines[k].split(b" ")
            t = draw(st.integers(0, len(tokens) - 1))
            tokens[t] = str(draw(st.integers(-2, 120))).encode()
            lines[k] = b" ".join(tokens)
        elif kind == "dup":
            lines.insert(k, lines[k])
        else:
            del lines[k]
        data = bytearray(b"\n".join(lines))
    return bytes(data)


class TestAgainstReferenceReader:
    @settings(max_examples=400, deadline=None)
    @given(data=mutated_files())
    def test_same_verdict_on_mutated_files(self, data):
        assert _reading(read_instance, data) == _reading(io_reference.read_instance, data)


class TestSuiteIO:
    def test_write_read_suite(self, tmp_path):
        p = InstanceParams(
            count=3, jobs=2, machines=2, tasks_per_job=2, speeds=2,
            dist=DistSpec("uniform"), rrdd="loose", seed=5,
        )
        instances = generate_suite(p)
        manifest = write_suite(instances, tmp_path / "suite", suite_id="t", params=p)
        assert len(manifest.entries) == 3
        assert read_suite(tmp_path / "suite") == instances

    def test_manifest_digests_match_files(self, tmp_path):
        instances = [build(seed=s) for s in (1, 2)]
        # distinct indices required for distinct file names
        instances[1] = generate_instance(
            InstanceParams(
                count=2, jobs=3, machines=3, tasks_per_job=3, speeds=5,
                dist=DistSpec("uniform"), rrdd="tight", seed=2,
            ),
            1,
        )
        write_suite(instances, tmp_path)
        manifest = read_manifest(tmp_path)
        for entry in manifest.entries:
            digest = hashlib.sha256((tmp_path / entry.file).read_bytes()).hexdigest()
            assert digest == entry.sha256

    def test_rewrite_identical(self, tmp_path):
        instances = [build()]
        m1 = write_suite(instances, tmp_path / "a")
        m2 = write_suite(instances, tmp_path / "b")
        assert [e.sha256 for e in m1.entries] == [e.sha256 for e in m2.entries]
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (
            tmp_path / "b" / "manifest.json"
        ).read_bytes()

    def test_empty_suite(self, tmp_path):
        manifest = write_suite([], tmp_path)
        assert manifest.entries == ()
        assert read_suite(tmp_path) == []

    def test_duplicate_names_rejected(self, tmp_path):
        inst = build()
        with pytest.raises(ValueError):
            write_suite([inst, inst], tmp_path)

    def test_file_names(self):
        original = build()
        assert instance_file_name(original) == "inst_0000_orig.ejsp"
        assert instance_file_name(project_speeds(original, (2,))) == "inst_0000_s3.ejsp"

    def test_read_instance_file(self, tmp_path):
        inst = build()
        path = tmp_path / "x.ejsp"
        path.write_bytes(write_instance(inst))
        assert read_instance_file(path) == inst


class TestJsonExport:
    def test_parses_and_carries_payload(self):
        inst = build()
        doc = json.loads(instance_to_json(inst))
        assert len(doc["jobs"]) == 3
        assert all(len(route) == 3 for route in doc["jobs"])
        assert doc["machines"] == 3
        assert doc["metadata"]["variant"] == "orig"
        first = doc["jobs"][0][0]
        assert first["times"] == list(inst.jobs[0][0].times)
        assert first["energies"] == list(inst.jobs[0][0].energies)


class TestCurves:
    def test_row_counts(self):
        energy, time = export_curves()
        assert len(energy) == 101
        assert len(time) == 251

    def test_energy_table_values(self):
        energy, _ = export_curves()
        assert energy[0] == (0, 100)
        assert energy[100] == (100, 36)
        for x, value in energy:
            assert value == energy_percentage(x)

    def test_time_table_values(self):
        _, time = export_curves()
        assert time[0][0] == 0.5
        assert time[-1][0] == 3.0
        x, value = time[50]  # x = 1.00
        assert x == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(1.0, abs=1e-3)
        for x, value in time:
            assert value == pytest.approx(time_fraction(x), abs=1e-6)

    def test_written_files(self, tmp_path):
        energy_path, time_path = write_curves(tmp_path)
        energy_lines = energy_path.read_text().splitlines()
        time_lines = time_path.read_text().splitlines()
        assert energy_lines[0] == "x,value"
        assert time_lines[0] == "x,value"
        assert len(energy_lines) == 102
        assert len(time_lines) == 252
        assert energy_lines[-1] == "100,36"
