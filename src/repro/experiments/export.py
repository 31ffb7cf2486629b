"""Aggregate all rendered experiment artifacts into one markdown report.

``pytest benchmarks/`` leaves one ``results/<experiment>.txt`` per table /
figure; :func:`write_report` stitches them (in the paper's order) into
``results/REPORT.md`` so the whole evaluation section can be read — or
committed — as a single document.

Also exposed as a CLI: ``python -m repro.experiments.export``.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import List, Optional, Sequence

from .cache import result_cache_dir

__all__ = ["ARTIFACT_ORDER", "collect_artifacts", "write_report"]

#: Paper order of the artifacts (extensions last).
ARTIFACT_ORDER: Sequence[str] = (
    "table2",
    "fig3",
    "fig4",
    "fig5",
    "fig6a", "fig6b", "fig6c", "fig6d",
    "fig7a", "fig7b", "fig7c", "fig7d",
    "fig8a", "fig8b", "fig8c", "fig8d",
    "fig9",
    "fig2c",
    "ablation-eta",
    "ablation-returns",
    "ablation-layernorm",
    "async-study",
)

_TITLES = {
    "table2": "Table II — impact of #employees x batch size",
    "fig3": "Fig. 3 — training time vs #employees",
    "fig4": "Fig. 4 — curiosity feature selection",
    "fig5": "Fig. 5 — reward mechanisms x curiosity",
    "fig9": "Fig. 9 — curiosity heat maps",
    "fig2c": "Fig. 2(c) — trajectories",
    "ablation-eta": "Extra ablation — curiosity scale η",
    "ablation-returns": "Extra ablation — GAE vs Monte-Carlo",
    "ablation-layernorm": "Extra ablation — layer normalization",
    "async-study": "Extra study — sync vs async (V-trace)",
}


def _title_for(artifact: str) -> str:
    if artifact in _TITLES:
        return _TITLES[artifact]
    if artifact.startswith(("fig6", "fig7", "fig8")):
        metric = {"6": "kappa", "7": "xi", "8": "rho"}[artifact[3]]
        return f"Fig. {artifact[3]}({artifact[4]}) — {metric} sweep"
    return artifact


def collect_artifacts(directory: Optional[Path] = None) -> List[Path]:
    """Artifact files present in ``directory``, in paper order."""
    directory = directory if directory is not None else result_cache_dir()
    found = []
    for artifact in ARTIFACT_ORDER:
        path = directory / f"{artifact}.txt"
        if path.exists():
            found.append(path)
    return found


def write_report(
    directory: Optional[Path] = None, output: Optional[Path] = None
) -> Path:
    """Write ``REPORT.md`` from the available artifacts; returns its path."""
    directory = directory if directory is not None else result_cache_dir()
    output = output if output is not None else directory / "REPORT.md"
    artifacts = collect_artifacts(directory)

    lines = [
        "# Reproduced evaluation artifacts",
        "",
        f"Generated {datetime.datetime.now():%Y-%m-%d %H:%M} from "
        f"`{directory}`.  Regenerate any artifact with "
        "`pytest benchmarks/ --benchmark-only` or "
        "`python -m repro.experiments run <id>`.",
        "",
    ]
    if not artifacts:
        lines.append("*(no artifacts found — run the benchmarks first)*")
    for path in artifacts:
        lines.append(f"## {_title_for(path.stem)}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")

    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text("\n".join(lines))
    return output


if __name__ == "__main__":
    from ..obs.log import configure_logging, get_logger

    configure_logging(level="INFO")
    get_logger(__name__).info("wrote %s", write_report())
