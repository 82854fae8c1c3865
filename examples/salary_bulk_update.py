#!/usr/bin/env python3
"""The paper's UPDATE application, plus referential integrity.

§1: "The techniques presented in this paper can also be applied to
speed up UPDATE statements; for instance, increasing the salary of
above-average Employees involves carrying out a bulk delete (and bulk
insert) on the Emp.salary index."

Part 1 runs exactly that statement — a raise for every above-average
employee — vertically (one heap sweep + one bulk delete + one bulk
insert on the salary index) and horizontally (per-record index
maintenance), and compares the simulated cost.

Part 2 deletes a department with referential integrity: the constraint
is checked set-oriented *before anything is modified* (RESTRICT), then
the delete is retried with ON DELETE CASCADE.

Run:  python examples/salary_bulk_update.py
"""

import random

from repro import (
    Attribute,
    ConstraintRegistry,
    Database,
    OnDelete,
    TableSchema,
    cascade_bulk_delete,
    bulk_update,
    traditional_update,
)
from repro.errors import IntegrityViolationError
from repro.sql.interpreter import SqlSession


def build():
    # A small buffer pool (~16 pages) so the table and the salary
    # index do not simply fit in memory.
    db = Database(page_size=4096, memory_bytes=64 * 1024)
    db.create_table(TableSchema.of(
        "dept", [Attribute.int_("dept_id"), Attribute.char("name", 30)]
    ))
    db.create_table(TableSchema.of(
        "emp",
        [
            Attribute.int_("emp_id"),
            Attribute.int_("dept_id"),
            Attribute.int_("salary"),
            Attribute.char("name", 60),
        ],
    ))
    rng = random.Random(12)
    db.load_table("dept", [(d, f"dept-{d}") for d in range(20)])
    emp_ids = rng.sample(range(1_000_000), 8000)
    db.load_table(
        "emp",
        [
            (e, rng.randrange(20), rng.randrange(30_000, 120_000), "emp")
            for e in emp_ids
        ],
    )
    db.create_index("dept", "dept_id", unique=True)
    db.create_index("emp", "emp_id", unique=True)
    db.create_index("emp", "dept_id")
    db.create_index("emp", "salary")
    db.flush()
    db.clock.reset()
    return db


def main() -> None:
    # --- part 1: the salary raise -----------------------------------------
    db = build()
    salaries = [v[2] for _, v in db.scan("emp")]
    average = sum(salaries) // len(salaries)
    db.clock.reset()
    print(f"average salary: {average}; raising everyone above it by 10%\n")

    result = bulk_update(
        db, "emp", "salary",
        compute=lambda row: row[2] + row[2] // 10,
        where=lambda row: row[2] > average,
    )
    print("vertical bulk update (bulk delete + bulk insert on I_salary):")
    print(result.summary())

    db2 = build()
    trad = traditional_update(
        db2, "emp", "salary",
        compute=lambda row: row[2] + row[2] // 10,
        where=lambda row: row[2] > average,
    )
    print(f"\ntraditional update: {trad.records_updated} records in "
          f"{trad.elapsed_seconds:.2f}s "
          f"({trad.io.random_ios} random I/Os)")
    print(f"vertical speedup: {trad.elapsed_ms / result.elapsed_ms:.1f}x")

    # The same statement also works through SQL:
    sql = SqlSession(db)
    r = sql.execute(
        f"UPDATE emp SET salary = salary + 1000 WHERE salary > {average}"
    )
    print(f"\nSQL 'UPDATE emp SET salary = salary + 1000 ...' "
          f"updated {r.affected} rows")

    # --- part 2: integrity-guarded department delete ----------------------
    print("\n--- deleting department 7 with referential integrity ---")
    constraints = ConstraintRegistry(db)
    fk = constraints.add_foreign_key(
        "emp", "dept_id", "dept", "dept_id", on_delete=OnDelete.RESTRICT
    )
    try:
        cascade_bulk_delete(db, constraints, "dept", "dept_id", [7])
    except IntegrityViolationError as exc:
        print(f"RESTRICT blocked it before any modification: {exc}")

    constraints2 = ConstraintRegistry(db)
    constraints2.add_foreign_key(
        "emp", "dept_id", "dept", "dept_id", on_delete=OnDelete.CASCADE
    )
    result, report = cascade_bulk_delete(
        db, constraints2, "dept", "dept_id", [7]
    )
    print(f"CASCADE: deleted department 7 and "
          f"{report.cascade_deleted} of its employees "
          f"(checked: {report.checked[0]})")
    assert all(v[1] != 7 for _, v in db.scan("emp"))
    print("no employee references department 7 anymore")


if __name__ == "__main__":
    main()
