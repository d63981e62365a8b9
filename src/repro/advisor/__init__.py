"""repro.advisor — self-tuning: workload capture, what-if planning,
health checks.

The packed R-tree is only optimal at pack time; under the paper's
Section 3.4 update problem its coverage and overlap — and with them
Table 1's search cost — drift.  This package closes the loop from the
statistics the system already collects to concrete tuning actions:

- :class:`QueryLog` captures the executed workload per
  :func:`repro.psql.fingerprint_query` fingerprint with estimated vs.
  actual cost (attach one to a
  :class:`~repro.psql.executor.Session` via ``session.query_log``; the
  query server does this for you).
- :func:`advise` replans the captured workload against
  :class:`WhatIfDatabase` catalogs carrying *hypothetical* B-trees and
  re-packed R-tree summaries (hypopg-style: PACK runs without writing a
  node, nothing is built) and ranks ``CREATE INDEX`` / ``REPACK`` actions by
  predicted workload savings.
- :func:`run_health_checks` grades buffer, WAL, replica, cache and
  per-tree packing-degradation signals OK/WARN/FAIL.

Surfaced as the ``ADVISE`` and ``HEALTH`` server verbs, the matching
:class:`repro.server.client.Client` methods, the REPL's ``\\advise`` /
``\\health`` commands, and scatter-gathered per shard by the cluster
router.  ``python -m repro.advisor.smoke`` runs the loop end-to-end:
degrade, capture, recommend, apply, verify the measured cost drop.
"""

from repro.advisor.health import (CheckResult, HealthReport,
                                  HealthThresholds, run_health_checks)
from repro.advisor.querylog import QueryLog, QueryStats
from repro.advisor.recommend import AdviseReport, Recommendation, advise
from repro.advisor.report import format_advise, format_health
from repro.advisor.whatif import (WhatIfDatabase,
                                  hypothetical_packed_summary,
                                  packed_degradation)

__all__ = [
    "AdviseReport",
    "CheckResult",
    "HealthReport",
    "HealthThresholds",
    "QueryLog",
    "QueryStats",
    "Recommendation",
    "WhatIfDatabase",
    "advise",
    "format_advise",
    "format_health",
    "hypothetical_packed_summary",
    "packed_degradation",
    "run_health_checks",
]
