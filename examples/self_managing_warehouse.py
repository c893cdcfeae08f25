"""A self-managing warehouse: discovery, recovery, and fact/dim joins.

End-to-end scenario over the TPC-DS-style subset:

1. load ``date_dim`` / ``catalog_sales`` / ``customer``;
2. run the constraint advisor — it finds the nearly sorted fact column
   and the nearly unique customer columns by itself;
3. run a fact ⋈ dimension join (the paper's §VII-A1 experiment) and a
   dashboard-style distinct query, showing the rewritten plans;
4. simulate a crash before the first checkpoint and reopen the data
   directory — patch data is *not* in the log; the WAL's data records
   replay and the indexes are re-discovered from that data (paper §V).

Run:  python examples/self_managing_warehouse.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import Database
from repro.bench.harness import measure
from repro.core.advisor import ConstraintAdvisor
from repro.gen.tpcds import load_tpcds
from repro.plan.optimizer import OptimizerOptions

SALES_ROWS = 150_000
CUSTOMER_ROWS = 40_000
SEED = 99

data_dir = Path(tempfile.mkdtemp()) / "warehouse"
db = Database(path=data_dir)
load_tpcds(
    db,
    catalog_sales_rows=SALES_ROWS,
    customer_rows=CUSTOMER_ROWS,
    partition_count=4,
    seed=SEED,
)
print(f"Loaded TPC-DS subset ({SALES_ROWS} sales, {CUSTOMER_ROWS} customers).\n")

# --- 1. self-management ----------------------------------------------------
advisor = ConstraintAdvisor(db, nuc_threshold=0.05, nsc_threshold=0.02)
proposals = advisor.analyze_table(
    "catalog_sales", columns=["cs_sold_date_sk", "cs_order_number"]
) + advisor.analyze_table(
    "customer", columns=["c_email_address", "c_customer_sk"]
)
print("Advisor proposals:")
for proposal in proposals:
    print(f"  {proposal.describe()}")
created = advisor.apply(proposals)
print(f"Created: {created}\n")

# --- 2. the paper's join experiment ------------------------------------------
join_query = (
    "SELECT COUNT(*) AS n FROM catalog_sales cs "
    "JOIN date_dim d ON cs.cs_sold_date_sk = d.d_date_sk"
)
plain = measure(
    lambda: db.sql(
        join_query, optimizer_options=OptimizerOptions(use_patch_indexes=False)
    )
)
patched = measure(lambda: db.sql(join_query))
assert plain.result.scalar() == patched.result.scalar()
print(
    f"fact-dim join: {plain.milliseconds:.1f}ms plain -> "
    f"{patched.milliseconds:.1f}ms patched "
    f"({plain.seconds / patched.seconds:.2f}x)"
)
print(db.explain(join_query).split("== physical plan ==")[0])

# --- 3. crash & recovery -------------------------------------------------------
answer_before = db.sql(
    "SELECT COUNT(DISTINCT c_email_address) AS n FROM customer"
).scalar()
db.close()  # "crash": no CHECKPOINT ever ran

recovered = Database(path=data_dir)
rebuilt = recovered.metrics().export()["gauges"]["recovery.indexes_rebuilt"]
print(f"Reopened {data_dir.name}/. Indexes rebuilt from data: {rebuilt:.0f}")
for index in recovered.catalog.indexes():
    print(f"  {index.describe()}")
answer_after = recovered.sql(
    "SELECT COUNT(DISTINCT c_email_address) AS n FROM customer"
).scalar()
assert answer_before == answer_after
print(
    f"count(distinct c_email_address) = {answer_after} "
    "(identical before and after recovery)"
)
recovered.close()
shutil.rmtree(data_dir.parent)
