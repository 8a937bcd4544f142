#!/usr/bin/env python3
"""The regulator's day: penalties landscape, audit, and spot checks.

Ties together the motivation and the mechanism:

1. prints the Fig. 1 penalty landscape (why operators should care);
2. runs the GDPRBench regulator persona against all three engines;
3. performs a full compliance audit of a live rgpdOS instance,
   including negative probes (direct DBFS access attempts) and a
   right-of-access spot check, the way a DPA inspection would.

Run:  python examples/regulator_audit.py
"""

from repro import RgpdOS, processing
from repro.baseline.gdprbench import (
    GDPRBenchRunner,
    PlainDBAdapter,
    RgpdOSAdapter,
    UserspaceDBAdapter,
)
from repro.workloads.generator import STANDARD_DECLARATIONS, PopulationGenerator
from repro.workloads.penalties import (
    penalty_records,
    top_sectors,
    totals_by_year,
)


def penalties_landscape() -> None:
    print("-- Fig. 1: the penalty landscape (2018-2021) --")
    records = penalty_records()
    print("   total penalties per year:")
    for year, total in totals_by_year(records).items():
        bar = "#" * max(1, int(total / 3e7))
        print(f"     {year}  {total/1e6:10.1f} M EUR  {bar}")
    print("   top 5 sanctioned sectors:")
    for sector, total in top_sectors(records, n=5):
        print(f"     {sector:32s} {total/1e6:10.1f} M EUR")
    print()


def regulator_persona() -> None:
    print("-- GDPRBench regulator persona on all three engines --")
    for adapter_cls in (PlainDBAdapter, UserspaceDBAdapter, RgpdOSAdapter):
        runner = GDPRBenchRunner(adapter_cls(), seed=17)
        runner.load(20)
        result = runner.run("regulator", 40)
        print(f"   {result.adapter:20s} {result.ops_per_second:10.0f} audits/s")
    print("   (the plain engine is fastest because it has no log to audit —")
    print("    its audit op returns nothing, which is the finding)\n")


@processing(purpose="analytics")
def decade_of(user):
    if user.year_of_birthdate:
        return (user.year_of_birthdate // 10) * 10
    return None


def inspection() -> None:
    print("-- DPA inspection of a live rgpdOS operator --")
    operator = RgpdOS(operator_name="inspected-operator")
    operator.install(STANDARD_DECLARATIONS)
    operator.register(decade_of)

    generator = PopulationGenerator(seed=99)
    refs = []
    for subject in generator.subjects(10):
        consents = generator.consent_assignment(
            ["analytics"], grant_probability=0.5,
            scopes={"analytics": "v_ano"},
        )
        refs.append(operator.collect(
            "user", subject.user_record(),
            subject_id=subject.subject_id, method="web_form",
            consents=consents,
        ))
    operator.invoke("decade_of", target="user")
    operator.rights.erase(refs[0].subject_id)

    report = operator.audit()
    print(f"   audit verdict: {report.summary()}")
    for control in report.controls:
        print(f"     [{control.status.upper():4s}] {control.control_id:32s} "
              f"({control.article})")

    subject_id = refs[1].subject_id
    access = operator.rights.right_of_access(subject_id)
    print(f"\n   spot check — right of access for {subject_id}:")
    print(f"     records: {len(access.export['records'])}, "
          f"logged processings: {len(access.processings)}")
    activity = operator.log.activity_report()
    print(f"   Art. 30 register: {activity['total_processings']} entries, "
          f"{activity['denied']} denials on record")


def main() -> None:
    print("=== the regulator's view ===\n")
    penalties_landscape()
    regulator_persona()
    inspection()


if __name__ == "__main__":
    main()
