"""Builders shared by the test modules: series, cycle events, the paper's
Table 4 reference rows and small datasets on disk.

Test modules import it as ``builders``; pytest puts this directory on
``sys.path`` as it does for every test module in it.
"""

from techcycle.cycle import CycleEvents
from techcycle.market_data import RevenueSeries

# the revenue CSV's header line
HEADER = "year,format,revenue_nominal_musd,revenue_real_musd,units_m"

# Table 4's published lifecycle rows: (technology, A, M, Z); None = still in progress
REFERENCE_ROWS = [
    ("vinyl", 1930, 1979, 2019),
    ("8-track", 1965, 1978, 1982),
    ("cassette", 1964, 1990, 2005),
    ("cd", 1983, 2001, 2019),
    ("download", 2004, 2012, None),
]


def series(points, name="x"):
    return RevenueSeries(technology=name, base_year=2018, points=points)


def rescaled(s, factor):
    return RevenueSeries(s.technology, s.base_year,
                         {year: value * factor for year, value in s.points.items()})


def events(tech, a, m, z, censored=False):
    return CycleEvents(technology=tech, a_year=a, m_year=m, z_year=z, censored=censored)


def dataset_files(rows, cpi="year,index\n2000,80\n2001,82\n2002,85\n2018,100\n",
                  groups="old = Old\nnew = New\n"):
    """A small dataset as file name -> content: revenue ``rows`` under the
    header, a CPI table and a grouping (by default two groups, old and new)."""
    return {"data.csv": f"{HEADER}\n{rows}", "cpi.csv": cpi, "groups.cfg": groups}


def write_files(directory, files):
    """Write each name -> content of ``files`` (text or bytes) under ``directory``."""
    for name, content in files.items():
        path = directory / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)


def data_flags(directory):
    """The CLI flags that read the dataset ``dataset_files`` names under ``directory``."""
    return ["--data", f"{directory}/data.csv", "--cpi", f"{directory}/cpi.csv",
            "--groups", f"{directory}/groups.cfg"]
