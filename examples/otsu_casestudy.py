#!/usr/bin/env python3
"""The paper's full case study (Section VI): four Otsu architectures.

Regenerates Table I, Table II, Fig. 7 (writes PGM images), Fig. 9 and
Fig. 10 (writes graphviz dot files), runs every architecture on the
simulated Zedboard and verifies the binarized image is bit-exact against
the software pipeline.

Run:  python examples/otsu_casestudy.py
"""

from pathlib import Path

from repro.apps.image import write_pgm
from repro.report import (
    build_all_architectures,
    compare_code_size,
    regenerate_fig7,
    regenerate_fig9,
    regenerate_fig10,
    regenerate_table1,
    regenerate_table2,
)

OUT = Path(__file__).parent / "out" / "otsu"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    print("building Arch4 first, then Arch1-3 reusing its cores ...\n")
    builds = build_all_architectures(width=64, height=64)

    print(regenerate_table1(builds).render(), "\n")
    print(regenerate_table2(builds).render(), "\n")
    print(regenerate_fig9(builds).render(), "\n")

    fig10 = regenerate_fig10(builds)
    print(fig10.render())
    for arch, dot in fig10.diagrams.items():
        (OUT / f"arch{arch}.dot").write_text(dot)
    print(f"  dot files in {OUT}/\n")

    fig7 = regenerate_fig7(width=256, height=256)
    write_pgm(OUT / "original.pgm", fig7.gray)
    write_pgm(OUT / "filtered.pgm", fig7.binary)
    print(fig7.render())
    print(f"  images: {OUT}/original.pgm, {OUT}/filtered.pgm\n")

    print(compare_code_size(builds[4].flow).render(), "\n")

    print("=== simulated execution on the generated systems ===")
    for arch, build in sorted(builds.items()):
        report = build.app.simulate(build.flow.system)
        ok = build.app.matches(report)
        ms = report.seconds * 1e3
        print(
            f"  Arch{arch}: {report.cycles:>8} cycles ({ms:6.2f} ms @100MHz)  "
            f"output {'bit-exact' if ok else 'WRONG'}"
        )


if __name__ == "__main__":
    main()
