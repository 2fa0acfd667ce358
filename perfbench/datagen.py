"""Seeded synthetic clinic data for the benchmark.

The layout follows the five-table clinic fixture of the test suite
(DEMOGRAPHIC, DIAGNOSES, PROCEDURES, PRESCRIPTIONS, LAB) and its question
templates, with scale parameters for rows, distinct text values and
corpus size. Everything is drawn from ``random.Random`` seeded with
strings, so one seed gives byte-identical files whatever the interpreter's
hash seed is. Besides the files, :func:`generate` returns a :class:`Truth`
that records, by construction, what every generated prediction is, so the
benchmark can check the program's outputs without running the program's
own code.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

DESIGNATED = ("LAB", "PRESCRIPTIONS", "PROCEDURES")

# Shares of the generated inputs. Every run prints them next to its sizes.
PARAPHRASE_SHARE = 0.7  # samples with a human paraphrase
SYNTHETIC_SHARE = 0.3  # samples that arrive with one synthetic paraphrase
SINGULAR_SHARE = 0.2  # raw samples whose SQL uses singular table names
TOP1_MIX = {
    "exact": 0.45,  # the gold query
    "recased": 0.15,  # gold with lower-case keywords and doubled spaces
    "wrong_value": 0.15,  # same template, another value from the column
    "wrong_select": 0.10,  # the select list replaced by COUNT(*)
    "non_exec": 0.10,  # a column that does not exist: SQLite error
    "unparsed": 0.05,  # truncated inside a literal or an unsupported tail
}
# Beams cycle through these candidate patterns, in descending score order:
# N executes and returns rows, X is a SQLite error, E executes and returns
# no row. Ten beams hold 16 N, 13 X and 11 E; two of them have no
# candidate that returns rows, one with an error on top.
BEAM_PATTERNS = ("NXNE", "XNNE", "ENXN", "XENN", "XXEN", "XEXE", "EXEX", "NNXN", "XNEN", "NEXN")
BEAM_KINDS = {"N": "nonempty", "X": "non_exec", "E": "empty"}

_SINGULAR = {
    "DEMOGRAPHIC": "DEMOGRAPHICS",
    "DIAGNOSES": "DIAGNOSE",
    "PROCEDURES": "PROCEDURE",
    "PRESCRIPTIONS": "PRESCRIPTION",
    "LAB": "LABS",
}

SCHEMA = {
    "tables": [
        {
            "name": "DEMOGRAPHIC",
            "columns": [
                ("SUBJECT_ID", "number"), ("HADM_ID", "number"), ("NAME", "text"),
                ("AGE", "number"), ("GENDER", "text"), ("LANGUAGE", "text"),
                ("INSURANCE", "text"), ("ETHNICITY", "text"), ("ADMITTIME", "datetime"),
            ],
        },
        {
            "name": "DIAGNOSES",
            "columns": [
                ("SUBJECT_ID", "number"), ("HADM_ID", "number"), ("ICD9_CODE", "text"),
                ("SHORT_TITLE", "text"), ("LONG_TITLE", "text"),
            ],
        },
        {
            "name": "PROCEDURES",
            "columns": [
                ("SUBJECT_ID", "number"), ("HADM_ID", "number"), ("ICD9_CODE", "text"),
                ("SHORT_TITLE", "text"), ("LONG_TITLE", "text"),
            ],
        },
        {
            "name": "PRESCRIPTIONS",
            "columns": [
                ("SUBJECT_ID", "number"), ("HADM_ID", "number"), ("DRUG", "text"),
                ("DRUG_TYPE", "text"), ("ROUTE", "text"), ("DRUG_DOSE", "text"),
            ],
        },
        {
            "name": "LAB",
            "columns": [
                ("SUBJECT_ID", "number"), ("HADM_ID", "number"), ("ITEMID", "text"),
                ("LABEL", "text"), ("FLAG", "text"), ("VALUE_UNIT", "text"), ("CATEGORY", "text"),
            ],
        },
    ]
}

LANGUAGES = ["ARAB", "CANT", "ENGL", "FREN", "GERM", "GREE", "HAIT", "ITAL", "KORE",
             "MAND", "POLI", "PORT", "RUSS", "SPAN", "VIET"]
INSURANCES = ["Government", "Medicaid", "Medicare", "Private", "Self Pay"]
ETHNICITIES = ["ASIAN", "BLACK", "HISPANIC", "MULTI", "NATIVE", "OTHER", "UNKNOWN", "WHITE"]
FLAGS = ["abnormal", "delta", "normal"]
ROUTES = ["IM", "IV", "PO", "SC"]
DRUG_TYPES = ["ADDITIVE", "BASE", "MAIN"]
UNITS = ["%", "IU/L", "K/uL", "mg/dL", "mmol/L"]
CATEGORIES = ["Blood Gas", "Chemistry", "Hematology", "Urine"]

# Word parts of the large text columns. Each column's distinct values are
# drawn without replacement from the product of its parts.
_FIRST = ("Alice Brian Carla Derek Elena Frank Grace Henry Irene Jamal Karen Louis Maria "
          "Nadia Oscar Priya Quinn Rosa Samir Tanya Umar Vera Wendy Xavier Yusuf Zara "
          "Aaron Beatriz Conrad Dalia Edwin Fiona Gideon Hana Ivan Jolene Kofi Leona Marco Nina").split()
_INITIAL = [""] + [f"{c}." for c in "ABCDEFGHJKLMNPRSTW"]
_LAST = ("Abbott Barnes Chen Diaz Evans Foster Gupta Hale Ibarra Jones Kim Lopez Mills Nolan "
         "Okafor Price Reyes Stone Tran Usman Vance Walsh Young Zimmer Acosta Bauer Castillo "
         "Dunn Ellis Fischer Garner Holt Ingram Jensen Kowalski Lund Moreau Nash Ortiz Pike").split()
_DX_ADJ = ("Acute Chronic Recurrent Benign Malignant Congenital Primary Secondary Unspecified "
           "Severe Mild Obstructive Diabetic Hypertensive Postoperative Traumatic").split()
_ORGAN = ("renal hepatic cardiac pulmonary gastric colonic biliary pancreatic splenic thyroid "
          "adrenal cerebral spinal retinal cochlear dermal muscular skeletal vascular aortic "
          "venous arterial lymphatic prostatic ovarian uterine bladder esophageal tracheal nasal").split()
_DX_NOUN = ("failure insufficiency stenosis obstruction infarction embolism neoplasm cyst abscess "
            "hemorrhage fibrosis inflammation ulcer lesion calculus hernia dysplasia atrophy").split()
_PX_APPROACH = ("Open Closed Percutaneous Endoscopic Laparoscopic Robotic Transcatheter "
                "Radical Partial Total Excisional Diagnostic").split()
_PX_NOUN = ("resection biopsy repair drainage bypass transplant ablation excision fixation "
            "implantation reconstruction catheterization dilation ligation irrigation "
            "incision revision replacement aspiration stenting").split()
_DRUG_STEM = ("Amoxi Cardo Neuro Hepa Pulmo Gastro Derma Vaso Thrombo Lipo Gluco Nephro Osteo "
              "Immuno Hemo Cyto Myco Pyra Zola Tetra Cefa Levo Metro Pro Dex Fluo Clo Rani "
              "Sima Ator Losa Vala Olme Perin Bisop Carve Furo Spiro Hydro Chloro").split()
_DRUG_SUFFIX = "cillin pril sartan statin olol azole mycin floxacin tidine prazole dronate mab nib vir parin".split()
_DRUG_STRENGTH = "5mg 10mg 20mg 25mg 40mg 50mg 100mg 125mg 250mg 500mg 1g 2g".split()
_ANALYTE = ("Potassium Sodium Chloride Bicarbonate Creatinine Urea Glucose Calcium Magnesium "
            "Phosphate Albumin Bilirubin Lactate Troponin Ferritin Hemoglobin Hematocrit "
            "Platelets Leukocytes Neutrophils Lymphocytes Monocytes Eosinophils Fibrinogen "
            "Amylase Lipase Cortisol Insulin Thyrotropin Ammonia Osmolality Ketones Nitrite "
            "Protein Urobilinogen Digoxin Vancomycin Lithium Ethanol Salicylate").split()
_SPECIMEN = "Serum Plasma Whole-Blood Urine Arterial Venous Capillary Fluid Stool Sputum".split()
_METHOD = "Enzymatic Colorimetric Ion-Selective Immunoassay Automated Manual Point-of-Care Calculated Turbidimetric Chromatographic Reflex Panel".split()


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload's inputs."""

    samples: int  # corpus size
    rows: int  # rows per clinical table
    distinct: int  # distinct values per large text column, and patients
    test_size: int | None  # TEST split size; None puts the whole eval pool in TEST
    beams: int  # beams in the rerank input
    recover_preds: int  # predictions in the recover input
    recover_misses: int  # unique misses on the large text columns; each is repeated once
    recover_unparsed: float  # share of unparseable predictions; the rest are exact hits


@dataclass(frozen=True)
class Template:
    name: str
    question: str
    paraphrase: str
    sql: str  # canonical form; {T:NAME} marks a table name, [SLOT] a value
    slots: tuple[tuple[str, str, str], ...]  # (slot, table, column)


def _tpl(name, question, paraphrase, sql, *slots):
    return Template(name, question, paraphrase, sql, tuple(slots))


SCHEMA_COLS = {t["name"]: t["columns"] for t in SCHEMA["tables"]}

_COUNT = "SELECT COUNT(DISTINCT {T:%s}.SUBJECT_ID) FROM {T:%s}"
TEMPLATES = (
    _tpl("lab-count", "how many lab events are labeled [L]", "number of admissions with a [L] lab test",
         'SELECT COUNT(DISTINCT {T:LAB}.HADM_ID) FROM {T:LAB} WHERE {T:LAB}.LABEL = "[L]"',
         ("L", "LAB", "LABEL")),
    _tpl("lab-units", "what are the value units of lab test [L]", "in which units is [L] reported",
         'SELECT {T:LAB}.VALUE_UNIT FROM {T:LAB} WHERE {T:LAB}.LABEL = "[L]"',
         ("L", "LAB", "LABEL")),
    _tpl("lab-category", "which category does lab item [IT] belong to", "category of lab item [IT]",
         'SELECT {T:LAB}.CATEGORY FROM {T:LAB} WHERE {T:LAB}.ITEMID = "[IT]"',
         ("IT", "LAB", "ITEMID")),
    _tpl("rx-count", "how many admissions received [D]", "count the admissions given [D]",
         'SELECT COUNT(DISTINCT {T:PRESCRIPTIONS}.HADM_ID) FROM {T:PRESCRIPTIONS} '
         'WHERE {T:PRESCRIPTIONS}.DRUG = "[D]"',
         ("D", "PRESCRIPTIONS", "DRUG")),
    _tpl("rx-route", "what is the route of [D]", "how is [D] administered",
         'SELECT {T:PRESCRIPTIONS}.ROUTE FROM {T:PRESCRIPTIONS} WHERE {T:PRESCRIPTIONS}.DRUG = "[D]"',
         ("D", "PRESCRIPTIONS", "DRUG")),
    _tpl("proc-count", "how many patients underwent [P]", "number of patients who had a [P]",
         (_COUNT % ("PROCEDURES", "PROCEDURES")) + ' WHERE {T:PROCEDURES}.SHORT_TITLE = "[P]"',
         ("P", "PROCEDURES", "SHORT_TITLE")),
    _tpl("demo-language", "how many patients speak [LANG]", "count patients whose language is [LANG]",
         (_COUNT % ("DEMOGRAPHIC", "DEMOGRAPHIC")) + ' WHERE {T:DEMOGRAPHIC}.LANGUAGE = "[LANG]"',
         ("LANG", "DEMOGRAPHIC", "LANGUAGE")),
    _tpl("demo-age", "what is the age of [N]", "how old is [N]",
         'SELECT {T:DEMOGRAPHIC}.AGE FROM {T:DEMOGRAPHIC} WHERE {T:DEMOGRAPHIC}.NAME = "[N]"',
         ("N", "DEMOGRAPHIC", "NAME")),
    _tpl("demo-two-cols", "what are the insurance and language of [N]", "which insurance and language does [N] have",
         'SELECT {T:DEMOGRAPHIC}.INSURANCE, {T:DEMOGRAPHIC}.LANGUAGE FROM {T:DEMOGRAPHIC} '
         'WHERE {T:DEMOGRAPHIC}.NAME = "[N]"',
         ("N", "DEMOGRAPHIC", "NAME")),
    _tpl("demo-older", "how many patients are older than [A]", "count the patients above age [A]",
         (_COUNT % ("DEMOGRAPHIC", "DEMOGRAPHIC")) + " WHERE {T:DEMOGRAPHIC}.AGE > [A]",
         ("A", "DEMOGRAPHIC", "AGE")),
    _tpl("dx-count", "how many patients were diagnosed with [DX]", "number of patients with a diagnosis of [DX]",
         (_COUNT % ("DIAGNOSES", "DIAGNOSES")) + ' WHERE {T:DIAGNOSES}.SHORT_TITLE = "[DX]"',
         ("DX", "DIAGNOSES", "SHORT_TITLE")),
    _tpl("dx-title", "give the full title of diagnosis [DX]", "what is the long title for [DX]",
         'SELECT {T:DIAGNOSES}.LONG_TITLE FROM {T:DIAGNOSES} WHERE {T:DIAGNOSES}.SHORT_TITLE = "[DX]"',
         ("DX", "DIAGNOSES", "SHORT_TITLE")),
    _tpl("join-lab", "how many patients who speak [LANG] had an abnormal lab",
         "count [LANG] speakers with an abnormal lab result",
         (_COUNT % ("DEMOGRAPHIC", "DEMOGRAPHIC"))
         + " INNER JOIN {T:LAB} ON {T:DEMOGRAPHIC}.HADM_ID = {T:LAB}.HADM_ID"
         + ' WHERE {T:DEMOGRAPHIC}.LANGUAGE = "[LANG]" AND {T:LAB}.FLAG = "abnormal"',
         ("LANG", "DEMOGRAPHIC", "LANGUAGE")),
    _tpl("join-rx", "how many patients with [INS] insurance received a [RT] type drug",
         "number of [INS] patients given a [RT] drug",
         (_COUNT % ("DEMOGRAPHIC", "DEMOGRAPHIC"))
         + " INNER JOIN {T:PRESCRIPTIONS} ON {T:DEMOGRAPHIC}.HADM_ID = {T:PRESCRIPTIONS}.HADM_ID"
         + ' WHERE {T:DEMOGRAPHIC}.INSURANCE = "[INS]" AND {T:PRESCRIPTIONS}.DRUG_TYPE = "[RT]"',
         ("INS", "DEMOGRAPHIC", "INSURANCE"), ("RT", "PRESCRIPTIONS", "DRUG_TYPE")),
    _tpl("join-proc", "list the procedures performed on [E] patients", "which procedures did [E] patients undergo",
         "SELECT {T:PROCEDURES}.SHORT_TITLE FROM {T:DEMOGRAPHIC}"
         + " INNER JOIN {T:PROCEDURES} ON {T:DEMOGRAPHIC}.HADM_ID = {T:PROCEDURES}.HADM_ID"
         + ' WHERE {T:DEMOGRAPHIC}.ETHNICITY = "[E]"',
         ("E", "DEMOGRAPHIC", "ETHNICITY")),
)
# The recover input: templates with one text condition on a large column,
# plus one on a small column that takes a cheap miss in every workload.
RECOVERY_COLUMNS = (("LAB", "LABEL"), ("PRESCRIPTIONS", "DRUG"), ("PROCEDURES", "SHORT_TITLE"),
                    ("DIAGNOSES", "SHORT_TITLE"), ("DEMOGRAPHIC", "NAME"))
SMALL_MISS_COLUMN = ("DEMOGRAPHIC", "LANGUAGE")
RECOVERY_TEMPLATES = tuple(t for t in TEMPLATES if t.sql.count('"') == 2
                           and t.slots[0][1:] in RECOVERY_COLUMNS + (SMALL_MISS_COLUMN,))


def render_sql(template: Template, values: dict[str, str], *, singular: bool = False) -> str:
    sql = template.sql
    for table, alias in _SINGULAR.items():
        sql = sql.replace("{T:%s}" % table, alias if singular else table)
    for slot, value in values.items():
        sql = sql.replace(f"[{slot}]", value.replace('"', '""'))
    return sql


@dataclass
class Truth:
    """What the generator built, known without running the program."""

    column_values: dict[tuple[str, str], list[str]]
    gold: dict[str, str] = field(default_factory=dict)  # id -> canonical SQL
    main_table: dict[str, str] = field(default_factory=dict)
    questions: dict[str, int] = field(default_factory=dict)  # id -> questions linearize exports
    top1_kind: dict[str, str] = field(default_factory=dict)
    beam_kinds: dict[str, list[str]] = field(default_factory=dict)  # in descending score order
    beam_sql: dict[str, list[str]] = field(default_factory=dict)
    recover_items: list[dict] = field(default_factory=list)
    test_size: int = 0
    shares: dict = field(default_factory=dict)


def _distinct_values(rng: random.Random, parts: list[list[str]], n: int, fmt) -> list[str]:
    total = 1
    for part in parts:
        total *= len(part)
    if n > total:
        raise ValueError(f"cannot draw {n} distinct values from {total} combinations")
    out = []
    for index in rng.sample(range(total), n):
        combo = []
        for part in parts:
            index, k = divmod(index, len(part))
            combo.append(part[k])
        out.append(fmt(combo))
    return out


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _draw(shares: dict[str, float], n: int, rng: random.Random) -> list[str]:
    """Exactly round(share * n) of each kind (the remainder to the first
    kind), in a seeded order."""
    kinds = []
    for kind, share in shares.items():
        kinds += [kind] * round(share * n)
    first = next(iter(shares))
    kinds = (kinds + [first] * n)[:n]
    rng.shuffle(kinds)
    return kinds


def _misspell(rng: random.Random, value: str, taken: set[str]) -> str:
    for _ in range(100):
        chars = list(value)
        op = rng.randrange(4)
        i = rng.randrange(len(chars))
        if op == 0 and len(chars) > 3:
            del chars[i]
        elif op == 1 and i + 1 < len(chars):
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
        elif op == 2:
            chars[i] = rng.choice("aeiourstnlm")
        else:
            chars = list(value.lower() if rng.random() < 0.5 else value.upper())
        out = "".join(chars)
        if out != value and out not in taken and '"' not in out:
            return out
    raise RuntimeError(f"could not misspell {value!r}")


def generate(root: Path, seed: int, scale: Scale) -> Truth:
    """Write tables, schema, raw corpus and prediction files under ``root``.

    The seed draws every value and row. The structure (template mix and
    order, which prediction kind and beam pattern each sample gets, where
    the misses sit) comes from a fixed seed, so seeds change the content
    but not the amount of work a command has.
    """
    rng = lambda part: random.Random(f"medsql-bench:{seed}:{part}")
    sr = random.Random("medsql-bench:structure")
    root = Path(root)
    (root / "tables").mkdir(parents=True, exist_ok=True)

    # Tables. Every large-column value occurs at least once.
    vr = rng("values")
    n = scale.distinct
    names = _distinct_values(vr, [_FIRST, _INITIAL, _LAST], n, lambda c: " ".join(w for w in c if w))
    dx = _distinct_values(vr, [_DX_ADJ, _ORGAN, _DX_NOUN], n, " ".join)
    px = _distinct_values(vr, [_PX_APPROACH, _ORGAN, _PX_NOUN], n, " ".join)
    drugs = _distinct_values(vr, [_DRUG_STEM, _DRUG_SUFFIX, _DRUG_STRENGTH], n, lambda c: f"{c[0]}{c[1]} {c[2]}")
    labels = _distinct_values(vr, [_ANALYTE, _SPECIMEN, _METHOD], n, " ".join)

    tr = rng("tables")
    demo = []
    for i, name in enumerate(names):
        sid = i + 1
        demo.append([sid, 100000 + sid, name, tr.randrange(18, 98), tr.choice("FM"),
                     tr.choice(LANGUAGES), tr.choice(INSURANCES), tr.choice(ETHNICITIES),
                     f"21{tr.randrange(0, 100):02d}-{tr.randrange(1, 13):02d}-{tr.randrange(1, 29):02d}"])

    def pick_value(pool: list[str], i: int) -> tuple[int, str]:
        k = i if i < len(pool) else tr.randrange(len(pool))
        return k, pool[k]

    def patient() -> list:
        row = demo[tr.randrange(n)]
        return [row[0], row[1]]

    dx_rows, px_rows, rx_rows, lab_rows = [], [], [], []
    for i in range(scale.rows):
        k, v = pick_value(dx, i)
        dx_rows.append(patient() + [f"D{k:05d}", v, f"Full record for {v}"])
        k, v = pick_value(px, i)
        px_rows.append(patient() + [f"P{k:05d}", v, f"Full record for {v}"])
        k, v = pick_value(drugs, i)
        rx_rows.append(patient() + [v, tr.choice(DRUG_TYPES), tr.choice(ROUTES), f"{tr.randrange(1, 50) * 10}mg"])
        k, v = pick_value(labels, i)
        lab_rows.append(patient() + [f"IT{k:05d}", v, tr.choice(FLAGS), tr.choice(UNITS), tr.choice(CATEGORIES)])
    rows = {"DEMOGRAPHIC": demo, "DIAGNOSES": dx_rows, "PROCEDURES": px_rows,
            "PRESCRIPTIONS": rx_rows, "LAB": lab_rows}
    column_values: dict[tuple[str, str], list[str]] = {}
    for table in SCHEMA["tables"]:
        header = [c for c, _ in table["columns"]]
        tr.shuffle(rows[table["name"]])
        _write_csv(root / "tables" / f"{table['name']}.csv", header, rows[table["name"]])
        for k, (col, attr) in enumerate(table["columns"]):
            if attr == "text":
                column_values[(table["name"], col)] = sorted({str(r[k]) for r in rows[table["name"]]})
    schema = {"tables": [{"name": t["name"], "columns": [{"name": c, "attr": a} for c, a in t["columns"]]}
                         for t in SCHEMA["tables"]]}
    (root / "schema.json").write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    truth = Truth(column_values=column_values)
    headers = {t["name"]: [c for c, _ in t["columns"]] for t in SCHEMA["tables"]}
    hadm_to_demo = {r[1]: r for r in demo}

    def witness(table: str, column: str, r: random.Random) -> str:
        """A value of table.column taken from an existing row."""
        k = headers[table].index(column)
        return str(r.choice(rows[table])[k])

    def slot_values(t: Template, r: random.Random) -> dict[str, str]:
        if t.name == "demo-older":
            return {"A": str(r.randrange(18, 90))}
        if t.name == "join-proc":
            # An ethnicity of a patient who has a procedure, so the join is non-empty.
            row = r.choice(px_rows)
            return {"E": hadm_to_demo[row[1]][7]}
        return {slot: witness(table, column, r) for slot, table, column in t.slots}

    # Corpus. Template counts and every share are exact.
    cr = rng("corpus")
    order = [TEMPLATES[k % len(TEMPLATES)] for k in range(scale.samples)]
    sr.shuffle(order)
    flags = {name: _draw({True: share, False: 1 - share}, scale.samples, sr)
             for name, share in (("para", PARAPHRASE_SHARE), ("synth", SYNTHETIC_SHARE), ("singular", SINGULAR_SHARE))}
    raw, samples = [], []
    for i, t in enumerate(order):
        values = slot_values(t, cr)
        sid = f"q{i:06d}"
        question = t.question
        for slot, value in values.items():
            question = question.replace(f"[{slot}]", value)
        gold = render_sql(t, values)
        rec = {"id": sid, "question": question}
        n_questions = 1
        if flags["para"][i]:
            para = t.paraphrase
            for slot, value in values.items():
                para = para.replace(f"[{slot}]", value)
            rec["question_paraphrase"] = para
            n_questions += 1
        if flags["synth"][i]:
            rec["synthetic"] = [{"text": question.lower() + " please", "pivot": "es"}]
            n_questions += 1
        rec["sql"] = render_sql(t, values, singular=flags["singular"][i])
        raw.append(rec)
        samples.append((sid, t, values))
        truth.gold[sid] = gold
        truth.main_table[sid] = gold.split(" FROM ", 1)[1].split(" ", 1)[0]
        truth.questions[sid] = n_questions
    _write_jsonl(root / "raw_corpus.jsonl", raw)
    pool = sum(1 for sid in truth.gold if truth.main_table[sid] in DESIGNATED)
    truth.test_size = pool if scale.test_size is None else scale.test_size

    def variant(kind: str, sid: str, t: Template, values: dict[str, str], r: random.Random) -> str:
        gold = truth.gold[sid]
        if kind in ("exact", "nonempty"):
            return gold
        if kind == "recased":
            out = gold
            for word in ("SELECT ", " FROM ", " WHERE ", "COUNT(", "DISTINCT ", " INNER JOIN ", " ON ", " AND "):
                out = out.replace(word, word.lower().replace(" ", "  "))
            return out
        if kind == "wrong_value":
            return render_sql(t, slot_values(t, r))
        if kind == "wrong_select":
            return "SELECT COUNT(*) FROM " + gold.split(" FROM ", 1)[1]
        if kind == "non_exec":
            # The first slot's column gets a suffix that no table has.
            ref = "{T:%s}.%s" % t.slots[0][1:]
            return render_sql(replace(t, sql=t.sql.replace(ref, ref + "_X")), values)
        if kind == "unparsed":
            cut = gold.rfind('"')
            return gold[: cut - 2] if cut > 0 else gold + " ORDER"
        if kind == "empty":
            table = truth.main_table[sid]
            col = next(c for c, a in SCHEMA_COLS[table] if a == "text")
            return f'SELECT {table}.HADM_ID FROM {table} WHERE {table}.{col} = "zz absent {sid}"'
        raise ValueError(kind)

    # Top-1 predictions for eval, one per sample.
    pr = rng("top1")
    kinds = _draw(TOP1_MIX, len(samples), sr)
    top1 = []
    for (sid, t, values), kind in zip(samples, kinds):
        truth.top1_kind[sid] = kind
        top1.append({"id": sid, "sql": variant(kind, sid, t, values, pr)})
    _write_jsonl(root / "top1.jsonl", top1)

    # Beams for rerank over the first samples.
    br = rng("beams")
    n_beams = min(scale.beams, len(samples))
    patterns = [BEAM_PATTERNS[k % len(BEAM_PATTERNS)] for k in range(n_beams)]
    sr.shuffle(patterns)
    beams = []
    for (sid, t, values), pattern in zip(samples, patterns):
        cand_kinds = [BEAM_KINDS[c] for c in pattern]
        sqls = [variant(k, sid, t, values, br) for k in cand_kinds]
        scores = [round(-(k + br.random() * 0.9), 6) for k in range(len(pattern))]
        truth.beam_kinds[sid] = cand_kinds
        truth.beam_sql[sid] = sqls
        # File order is shuffled; the program sorts by score.
        cands = [{"sql": s, "score": sc} for s, sc in zip(sqls, scores)]
        br.shuffle(cands)
        beams.append({"id": sid, "candidates": cands})
    _write_jsonl(root / "beams.jsonl", beams)

    # Recover input: single text-condition queries. Hits are on the large
    # columns. One unique miss is on a small column; the others take the
    # large columns in turn. A miss misspells a value of the column's
    # median length (so it costs about the same whatever the seed), and
    # comes back once, later in the file, as a repeated miss.
    rr = rng("recover")
    by_column: dict[tuple[str, str], list[Template]] = {}
    for t in RECOVERY_TEMPLATES:
        by_column.setdefault(t.slots[0][1:], []).append(t)
    n_unparsed = round(scale.recover_unparsed * scale.recover_preds)
    entries = [("unique_miss", SMALL_MISS_COLUMN)]
    entries += [("unique_miss", RECOVERY_COLUMNS[k % len(RECOVERY_COLUMNS)]) for k in range(scale.recover_misses)]
    n_misses = len(entries)
    entries += [("unparsed", None)] * n_unparsed
    entries += [("hit", None)] * (scale.recover_preds - 2 * n_misses - n_unparsed)
    sr.shuffle(entries)
    for miss in range(n_misses):
        first = [k for k, e in enumerate(entries) if e[0] == "unique_miss"][miss]
        entries.insert(sr.randrange(first + 1, len(entries) + 1), ("repeated_miss", miss))
    misses: list[tuple[Template, str]] = []
    recover = []
    for i, (kind, arg) in enumerate(entries):
        if kind == "repeated_miss":
            t, value = misses[arg]
        else:
            column = arg or RECOVERY_COLUMNS[sr.randrange(len(RECOVERY_COLUMNS))]
            t = sr.choice(by_column[column])
            if kind == "unique_miss":
                values = column_values[column]
                median = sorted(len(v) for v in values)[len(values) // 2]
                value = rr.choice([v for v in values if len(v) == median])
                value = _misspell(rr, value, set(values) | {m[1] for m in misses})
                misses.append((t, value))
            else:
                value = witness(*column, rr)
        sql = render_sql(t, {t.slots[0][0]: value})
        if kind == "unparsed":
            sql = sql[:-1]  # drops the closing quote
        rid = f"r{i:06d}"
        truth.recover_items.append({"id": rid, "kind": kind, "column": "%s.%s" % t.slots[0][1:],
                                    "value": value, "template": t.name, "sql": sql})
        recover.append({"id": rid, "sql": sql})
    _write_jsonl(root / "recover_preds.jsonl", recover)

    counts = lambda seq: {k: seq.count(k) for k in sorted(set(seq))}
    truth.shares = {
        "paraphrase": sum(1 for r in raw if "question_paraphrase" in r) / len(raw),
        "synthetic": sum(1 for r in raw if "synthetic" in r) / len(raw),
        "singular_tables": sum(1 for r in raw if r["sql"] != truth.gold[r["id"]]) / len(raw),
        "top1": counts(list(truth.top1_kind.values())),
        "beam_candidates": counts([k for ks in truth.beam_kinds.values() for k in ks]),
        "recover": counts([it["kind"] for it in truth.recover_items]),
    }
    return truth

