from __future__ import annotations

import csv
import hashlib
import itertools
import json
import random
import sys
import threading
import tracemalloc
from contextlib import closing, contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator

import pytest
from hypothesis import settings

from medsql import query
from medsql.augment import StubTranslator
from medsql.store import (
    ColumnDef,
    Sample,
    SchemaDef,
    TableDef,
    build_exec_db,
    build_value_lookup,
    open_exec_db,
    save_corpus,
    save_schema,
)

DATA_SEED = 20240915

# A test with no example count of its own runs 20,000 examples under
# `--hypothesis-profile=deep`. CI runs test_query's oracle tests this way;
# tier 1 keeps hypothesis' default profile.
settings.register_profile("deep", max_examples=20_000, deadline=None)

FIRST_NAMES = [
    "Alice", "Brian", "Carla", "Derek", "Elena", "Frank", "Grace", "Henry",
    "Irene", "Jamal", "Karen", "Louis", "Maria", "Nadia", "Oscar", "Priya",
    "Quinn", "Rosa", "Samir", "Tanya",
]
LAST_NAMES = [
    "Abbott", "Barnes", "Chen", "Diaz", "Evans", "Foster", "Gupta", "Hale",
    "Ibarra", "Jones", "Kim", "Lopez", "Mills", "Nolan", "Okafor", "Price",
    "Reyes", "Stone", "Tran", "Usman",
]
LANGUAGES = [
    "ARAB", "CANT", "ENGL", "FREN", "GERM", "GREE", "HAIT", "ITAL", "KORE",
    "MAND", "POLI", "PORT", "RUSS", "SPAN", "VIET",
]
INSURANCES = ["Government", "Medicaid", "Medicare", "Private", "Self Pay"]
ETHNICITIES = ["ASIAN", "BLACK", "HISPANIC", "MULTI", "NATIVE", "OTHER", "UNKNOWN", "WHITE"]
FLAGS = ["abnormal", "delta", "normal"]
ROUTES = ["IM", "IV", "PO", "SC"]
DRUG_TYPES = ["ADDITIVE", "BASE", "MAIN"]
UNITS = ["%", "IU/L", "K/uL", "mg/dL", "mmol/L"]
CATEGORIES = ["Blood Gas", "Chemistry", "Hematology", "Urine"]

N_ROWS = 100


def peak_bytes(fn) -> int:
    """The peak of the memory that Python allocates while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def clinic_schema() -> SchemaDef:
    t = ColumnDef
    return SchemaDef(
        (
            TableDef(
                "DEMOGRAPHIC",
                (
                    t("SUBJECT_ID", "number"),
                    t("HADM_ID", "number"),
                    t("NAME", "text"),
                    t("AGE", "number"),
                    t("GENDER", "text"),
                    t("LANGUAGE", "text"),
                    t("INSURANCE", "text"),
                    t("ETHNICITY", "text"),
                    t("ADMITTIME", "datetime"),
                ),
            ),
            TableDef(
                "DIAGNOSES",
                (
                    t("SUBJECT_ID", "number"),
                    t("HADM_ID", "number"),
                    t("ICD9_CODE", "text"),
                    t("SHORT_TITLE", "text"),
                    t("LONG_TITLE", "text"),
                ),
            ),
            TableDef(
                "PROCEDURES",
                (
                    t("SUBJECT_ID", "number"),
                    t("HADM_ID", "number"),
                    t("ICD9_CODE", "text"),
                    t("SHORT_TITLE", "text"),
                    t("LONG_TITLE", "text"),
                ),
            ),
            TableDef(
                "PRESCRIPTIONS",
                (
                    t("SUBJECT_ID", "number"),
                    t("HADM_ID", "number"),
                    t("DRUG", "text"),
                    t("DRUG_TYPE", "text"),
                    t("ROUTE", "text"),
                    t("DRUG_DOSE", "text"),
                ),
            ),
            TableDef(
                "LAB",
                (
                    t("SUBJECT_ID", "number"),
                    t("HADM_ID", "number"),
                    t("ITEMID", "text"),
                    t("LABEL", "text"),
                    t("FLAG", "text"),
                    t("VALUE_UNIT", "text"),
                    t("CATEGORY", "text"),
                ),
            ),
        )
    )


def write_clinic_csvs(directory: Path) -> dict[str, Path]:
    rng = random.Random(DATA_SEED)
    directory.mkdir(parents=True, exist_ok=True)
    names = rng.sample([f"{a} {b}" for a, b in itertools.product(FIRST_NAMES, LAST_NAMES)], N_ROWS)
    subjects = list(range(1, N_ROWS + 1))
    hadms = [1000 + i for i in subjects]

    def write(table: str, header: list[str], rows: list[list]) -> Path:
        path = directory / f"{table}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path

    demo_rows = []
    for i, (sid, hadm) in enumerate(zip(subjects, hadms)):
        demo_rows.append(
            [
                sid,
                hadm,
                names[i],
                rng.randrange(18, 98),
                rng.choice(["F", "M"]),
                rng.choice(LANGUAGES),
                rng.choice(INSURANCES),
                rng.choice(ETHNICITIES),
                f"210{rng.randrange(0, 10)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
            ]
        )

    def clinical_rows(prefix: str, title: str) -> list[list]:
        rows = []
        for i in range(N_ROWS):
            hadm = rng.choice(hadms)
            short = f"{title} {i:03d}"
            rows.append(
                [hadm - 1000, hadm, f"{prefix}{i:03d}", short, f"Full record for {short}, volume {i % 7}"]
            )
        return rows

    lab_rows = []
    for i in range(N_ROWS):
        hadm = rng.choice(hadms)
        lab_rows.append(
            [
                hadm - 1000,
                hadm,
                f"IT{i:03d}",
                f"ASSAY {i:03d}",
                rng.choice(FLAGS),
                rng.choice(UNITS),
                rng.choice(CATEGORIES),
            ]
        )

    rx_rows = []
    for i in range(N_ROWS):
        hadm = rng.choice(hadms)
        rx_rows.append(
            [
                hadm - 1000,
                hadm,
                f"DRUG {i:03d}",
                rng.choice(DRUG_TYPES),
                rng.choice(ROUTES),
                f"{rng.randrange(1, 50) * 10}mg",
            ]
        )

    return {
        "DEMOGRAPHIC": write(
            "DEMOGRAPHIC",
            ["SUBJECT_ID", "HADM_ID", "NAME", "AGE", "GENDER", "LANGUAGE", "INSURANCE", "ETHNICITY", "ADMITTIME"],
            demo_rows,
        ),
        "DIAGNOSES": write(
            "DIAGNOSES",
            ["SUBJECT_ID", "HADM_ID", "ICD9_CODE", "SHORT_TITLE", "LONG_TITLE"],
            clinical_rows("D", "DIAGNOSIS"),
        ),
        "PROCEDURES": write(
            "PROCEDURES",
            ["SUBJECT_ID", "HADM_ID", "ICD9_CODE", "SHORT_TITLE", "LONG_TITLE"],
            clinical_rows("P", "PROCEDURE"),
        ),
        "PRESCRIPTIONS": write(
            "PRESCRIPTIONS",
            ["SUBJECT_ID", "HADM_ID", "DRUG", "DRUG_TYPE", "ROUTE", "DRUG_DOSE"],
            rx_rows,
        ),
        "LAB": write(
            "LAB",
            ["SUBJECT_ID", "HADM_ID", "ITEMID", "LABEL", "FLAG", "VALUE_UNIT", "CATEGORY"],
            lab_rows,
        ),
    }


# (name, question, sql, ((slot, (table, column)), ...)): each [SLOT] token takes a value of its column.
Template = tuple[str, str, str, tuple[tuple[str, tuple[str, str]], ...]]


def clinic_templates() -> list[Template]:
    def tpl(name: str, question: str, sql: str, **slots: tuple[str, str]) -> Template:
        return name, question, sql, tuple(sorted(slots.items()))

    count_subjects = "SELECT COUNT(DISTINCT {t}.SUBJECT_ID) FROM {t}"
    return [
        # Evaluation-pool templates: the FROM table is a designated one.
        tpl(
            "lab-count",
            "how many lab events are labeled [L]",
            'SELECT COUNT(DISTINCT LAB.HADM_ID) FROM LAB WHERE LAB.LABEL = "[L]"',
            L=("LAB", "LABEL"),
        ),
        tpl(
            "lab-units",
            "what are the value units of lab test [L]",
            'SELECT LAB.VALUE_UNIT FROM LAB WHERE LAB.LABEL = "[L]"',
            L=("LAB", "LABEL"),
        ),
        tpl(
            "lab-category",
            "which category does lab item [IT] belong to",
            'SELECT LAB.CATEGORY FROM LAB WHERE LAB.ITEMID = "[IT]"',
            IT=("LAB", "ITEMID"),
        ),
        tpl(
            "rx-count",
            "how many admissions received [D]",
            'SELECT COUNT(DISTINCT PRESCRIPTIONS.HADM_ID) FROM PRESCRIPTIONS WHERE PRESCRIPTIONS.DRUG = "[D]"',
            D=("PRESCRIPTIONS", "DRUG"),
        ),
        tpl(
            "rx-route",
            "what is the route of [D]",
            'SELECT PRESCRIPTIONS.ROUTE FROM PRESCRIPTIONS WHERE PRESCRIPTIONS.DRUG = "[D]"',
            D=("PRESCRIPTIONS", "DRUG"),
        ),
        tpl(
            "proc-count",
            "how many patients underwent [P]",
            count_subjects.format(t="PROCEDURES") + ' WHERE PROCEDURES.SHORT_TITLE = "[P]"',
            P=("PROCEDURES", "SHORT_TITLE"),
        ),
        # Training templates: non-designated FROM tables, some joining a
        # designated table.
        tpl(
            "demo-language",
            "how many patients speak [LANG]",
            count_subjects.format(t="DEMOGRAPHIC") + ' WHERE DEMOGRAPHIC.LANGUAGE = "[LANG]"',
            LANG=("DEMOGRAPHIC", "LANGUAGE"),
        ),
        tpl(
            "demo-age",
            "what is the age of [N]",
            'SELECT DEMOGRAPHIC.AGE FROM DEMOGRAPHIC WHERE DEMOGRAPHIC.NAME = "[N]"',
            N=("DEMOGRAPHIC", "NAME"),
        ),
        tpl(
            "demo-two-cols",
            "what are the insurance and language of [N]",
            'SELECT DEMOGRAPHIC.INSURANCE, DEMOGRAPHIC.LANGUAGE FROM DEMOGRAPHIC WHERE DEMOGRAPHIC.NAME = "[N]"',
            N=("DEMOGRAPHIC", "NAME"),
        ),
        tpl(
            "demo-older",
            "how many patients are older than [A]",
            count_subjects.format(t="DEMOGRAPHIC") + " WHERE DEMOGRAPHIC.AGE > [A]",
            A=("DEMOGRAPHIC", "AGE"),
        ),
        tpl(
            "dx-count",
            "how many patients were diagnosed with [DX]",
            count_subjects.format(t="DIAGNOSES") + ' WHERE DIAGNOSES.SHORT_TITLE = "[DX]"',
            DX=("DIAGNOSES", "SHORT_TITLE"),
        ),
        tpl(
            "join-lab",
            "how many patients who speak [LANG] had an abnormal lab",
            count_subjects.format(t="DEMOGRAPHIC")
            + " INNER JOIN LAB ON DEMOGRAPHIC.HADM_ID = LAB.HADM_ID"
            + ' WHERE DEMOGRAPHIC.LANGUAGE = "[LANG]" AND LAB.FLAG = "abnormal"',
            LANG=("DEMOGRAPHIC", "LANGUAGE"),
        ),
        tpl(
            "join-rx",
            "how many patients with [INS] insurance received a [RT] type drug",
            count_subjects.format(t="DEMOGRAPHIC")
            + " INNER JOIN PRESCRIPTIONS ON DEMOGRAPHIC.HADM_ID = PRESCRIPTIONS.HADM_ID"
            + ' WHERE DEMOGRAPHIC.INSURANCE = "[INS]" AND PRESCRIPTIONS.DRUG_TYPE = "[RT]"',
            INS=("DEMOGRAPHIC", "INSURANCE"),
            RT=("PRESCRIPTIONS", "DRUG_TYPE"),
        ),
        tpl(
            "join-proc",
            "list the procedures performed on [E] patients",
            "SELECT PROCEDURES.SHORT_TITLE FROM DEMOGRAPHIC"
            + " INNER JOIN PROCEDURES ON DEMOGRAPHIC.HADM_ID = PROCEDURES.HADM_ID"
            + ' WHERE DEMOGRAPHIC.ETHNICITY = "[E]"',
            E=("DEMOGRAPHIC", "ETHNICITY"),
        ),
    ]


def fill_templates(templates: list[Template], lookup, limit_per_template: int) -> list[Sample]:
    """Fill each template with the product of its slots' sorted column values, at
    most ``limit_per_template`` times. A value's quotes are doubled in the SQL, and
    an id is the template name plus a digest of the values."""
    samples = []
    for name, question, sql, slots in templates:
        value_sets = [lookup.column(table, column).load() for _, (table, column) in slots]
        for combo in itertools.islice(itertools.product(*value_sets), limit_per_template):
            text, gold = question, sql
            for (slot, _), value in zip(slots, combo):
                text = text.replace(f"[{slot}]", value)
                gold = gold.replace(f"[{slot}]", value.replace('"', '""'))
            digest = hashlib.sha256("\x1f".join(combo).encode("utf-8")).hexdigest()[:10]
            sample = Sample(f"{name}-{digest}", text, gold)
            sample.gold_query  # every generated SQL string must parse
            samples.append(sample)
    return samples


class TranslateHandler(BaseHTTPRequestHandler):
    """Translation endpoint double: echo mirrors the offline stub, fail
    answers 503, no_content 204, flaky fails once then echoes, malformed
    omits "text", not_object answers a JSON array, surrogate a lone
    surrogate escape."""

    behavior = "echo"
    hits = 0

    def do_POST(self):
        cls = type(self)
        cls.hits += 1
        length = int(self.headers.get("Content-Length", "0"))
        payload = json.loads(self.rfile.read(length) or b"{}")
        if cls.behavior == "fail" or (cls.behavior == "flaky" and cls.hits == 1):
            self.send_response(503)
            self.end_headers()
            return
        if cls.behavior == "no_content":
            self.send_response(204)
            self.end_headers()
            return
        if cls.behavior == "malformed":
            body = b'{"no_text_key": 1}'
        elif cls.behavior == "not_object":
            body = b"[]"
        elif cls.behavior == "surrogate":
            body = b'{"text": "[fr] q \\ud800"}'
        else:
            text = StubTranslator().translate(payload["text"], payload["src"], payload["tgt"])
            body = json.dumps({"text": text}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def lexed(monkeypatch) -> list[str]:
    """Every string medsql lexes during the test, in order. Modules import
    the lexer by name, so each module's reference to it is replaced."""
    lexed: list[str] = []
    lex = query._lex

    def spy(text):
        lexed.append(text)
        return lex(text)

    for name, module in list(sys.modules.items()):
        if (name == "medsql" or name.startswith("medsql.")) and vars(module).get("_lex") is lex:
            monkeypatch.setattr(module, "_lex", spy)
    return lexed


@pytest.fixture()
def translate_server():
    servers = []

    def start(behavior: str):
        handler = type("Handler", (TranslateHandler,), {"behavior": behavior, "hits": 0})
        server = HTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_port}", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="session")
def clinic(tmp_path_factory) -> Iterator[SimpleNamespace]:
    """The clinic corpus, schema, CSVs and database, with one value lookup
    on a read-only connection that stays open for the session."""
    with clinic_files(tmp_path_factory.mktemp("clinic")) as files:
        yield files


@contextmanager
def clinic_files(root: Path) -> Iterator[SimpleNamespace]:
    """The files of the ``clinic`` fixture, written under ``root``; the
    lookup's connection is closed on exit."""
    schema = clinic_schema()
    csvs = write_clinic_csvs(root / "tables")
    db_path = build_exec_db(schema, csvs, root / "clinic.db")
    with closing(open_exec_db(db_path)) as conn:
        lookup = build_value_lookup(conn, schema)
        full = fill_templates(clinic_templates(), lookup, limit_per_template=200)
        assert len(full) >= 1000, f"fixture corpus shrank to {len(full)} samples"
        corpus = full[:1000]
        corpus_path = root / "corpus.jsonl"
        save_corpus(corpus, corpus_path)
        schema_path = root / "schema.json"
        save_schema(schema, schema_path)
        yield SimpleNamespace(
            root=root,
            schema=schema,
            schema_path=schema_path,
            csvs=csvs,
            db_path=db_path,
            lookup=lookup,
            corpus=corpus,
            corpus_path=corpus_path,
        )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from . import _acceptance_log

    if _acceptance_log.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.LINES:
            terminalreporter.write_line(line)
