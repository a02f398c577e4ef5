"""Analysis layer: metrics, scenario builders, experiment runners, reports.

The package itself imports nothing: each module is imported by name
(``repro.analysis.report``, ``repro.analysis.scenarios``, ...), so the
fluid model can use the report tables without loading the packet-level
scenario builders.
"""
