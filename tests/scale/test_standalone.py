"""The fluid model stands alone: ``repro.scale`` needs numpy, the wire-format
leaf ``repro.packet`` and a few light leaves — never the packet simulator.

Each leg runs in a fresh interpreter, so what it sees in ``sys.modules`` is
what ``repro.scale`` itself pulled in, not what other tests left behind.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: The ``repro`` modules outside ``repro.scale`` an import of it may load
#: (plus ``repro.packet`` and its modules).
ALLOWED = {"repro", "repro.exceptions", "repro.units", "repro.analysis",
           "repro.analysis.report"}

#: The packet simulator and everything that drags it in.
BLOCKED = ("networkx", "repro.netsim", "repro.core", "repro.apps",
           "repro.qos", "repro.crypto", "repro.dns", "repro.e2e",
           "repro.discrimination", "repro.analysis.scenarios",
           "repro.analysis.experiments")

_CAMPAIGNS = """
import sys
for name in {blocked!r}:
    sys.modules[name] = None

from repro.scale import (
    AdversaryCampaignRunner, FleetScaleRunner, LatencyCampaignRunner,
    StochasticCampaignRunner, Telemetry, TimelineCampaignRunner,
    attach_detectors, build_scenario, scenario_names,
)

FleetScaleRunner(client_counts=(500, 2000), n_sites=8).run()
TimelineCampaignRunner(scenarios=("discrimination_rollout",),
                       clients=2000).run()
telemetry = Telemetry(trace=False, events=True)
attach_detectors(telemetry.events)
StochasticCampaignRunner(clients=2000, epochs=8, replicas=2,
                         telemetry=telemetry).run()
assert len(telemetry.events) > 0
LatencyCampaignRunner(clients=2000, epochs=8, replicas=2).run_parallel(
    n_workers=2)
AdversaryCampaignRunner(clients=2000, epochs=8, replicas_per_point=1,
                        aggressiveness=(0.7,), sensitivities=(6.0,)).run()
for name in scenario_names():
    build_scenario(name, clients=500)
print("ok")
"""


def run_python(code):
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_packet_simulator():
    modules = json.loads(run_python(
        "import json, sys\n"
        "import repro.scale\n"
        "print(json.dumps(sorted(sys.modules)))\n"))
    outside = {name for name in modules
               if (name == "repro" or name.startswith("repro."))
               and not name.startswith("repro.scale")}
    stray = sorted(name for name in outside - ALLOWED
                   if name.split(".")[:2] != ["repro", "packet"])
    assert stray == []
    assert not [name for name in modules if name.split(".")[0] == "networkx"]


def test_import_loads_no_http_server():
    # The monitor is the one HTTP user; it loads when its name is first used.
    modules = json.loads(run_python(
        "import json, sys\n"
        "import repro.scale.timeline\n"
        "print(json.dumps(sorted(sys.modules)))\n"))
    assert "http.server" not in modules
    assert "repro.scale.monitor" not in modules


def test_import_parses_no_catalogue_document():
    # Every tool and every spawned pool worker imports repro.scale; the
    # thirteen scenario documents are parsed on first use, not then.
    opened = json.loads(run_python(
        "import json, sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda event, args: opened.append(str(args[0]))\n"
        "                 if event == 'open' and 'catalogue_data' in str(args[0])\n"
        "                 else None)\n"
        "import repro.scale\n"
        "at_import = list(opened)\n"
        "repro.scale.scenario_names()\n"
        "print(json.dumps([at_import, len(opened)]))\n"))
    assert opened == [[], 13]


def test_campaigns_run_with_the_packet_simulator_blocked():
    assert run_python(_CAMPAIGNS.format(blocked=BLOCKED)).strip() == "ok"
