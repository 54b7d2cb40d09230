"""SPC and DiskMon parsers/writers."""

import numpy as np
import pytest

from repro.trace.diskmon import parse_diskmon, write_diskmon
from repro.trace.generator import WebSearchTraceConfig, generate_websearch_trace
from repro.trace.umass import parse_spc, write_spc


@pytest.fixture
def sample_trace():
    return generate_websearch_trace(WebSearchTraceConfig(num_requests=200, seed=6))


# -- SPC ------------------------------------------------------------------

def test_spc_roundtrip(tmp_path, sample_trace):
    path = tmp_path / "t.spc"
    write_spc(sample_trace, path)
    parsed = parse_spc(path)
    assert len(parsed) == len(sample_trace)
    assert np.array_equal(parsed.lbas, sample_trace.lbas)
    assert np.array_equal(parsed.nbytes, sample_trace.nbytes)
    assert np.array_equal(parsed.is_read, sample_trace.is_read)


def test_spc_parses_lines_directly():
    lines = ["0,100,4096,R,0.5", "0,200,512,w,0.6"]
    t = parse_spc(lines)
    assert len(t) == 2
    assert t[0].is_read and not t[1].is_read


def test_spc_skips_comments_and_blanks():
    t = parse_spc(["# header", "", "0,1,512,R,0.0"])
    assert len(t) == 1


def test_spc_asu_filter():
    lines = ["0,1,512,R,0.0", "1,2,512,R,0.0", "0,3,512,R,0.0"]
    t = parse_spc(lines, asu_filter=0)
    assert len(t) == 2


def test_spc_malformed_raises_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_spc(["0,1,512,R,0.0", "garbage"])
    with pytest.raises(ValueError, match="opcode"):
        parse_spc(["0,1,512,X,0.0"])


# -- DiskMon ----------------------------------------------------------------

def test_diskmon_roundtrip(tmp_path, sample_trace):
    path = tmp_path / "t.dmn"
    write_diskmon(sample_trace, path)
    parsed = parse_diskmon(path)
    assert len(parsed) == len(sample_trace)
    assert np.array_equal(parsed.lbas, sample_trace.lbas)
    # Sizes round up to whole sectors in this format.
    assert (parsed.nbytes >= sample_trace.nbytes).all()


def test_diskmon_parses_lines():
    lines = ["0\t0.10\t0.0001\tRead\t1000\t8", "1 0.20 0.0001 Write 2000 16"]
    t = parse_diskmon(lines)
    assert len(t) == 2
    assert t[0].nbytes == 8 * 512
    assert not t[1].is_read


def test_diskmon_malformed():
    with pytest.raises(ValueError, match="line 1"):
        parse_diskmon(["too few fields"])
    with pytest.raises(ValueError, match="bad op"):
        parse_diskmon(["0 0.1 0.1 Erase 100 8"])
    with pytest.raises(ValueError, match="length"):
        parse_diskmon(["0 0.1 0.1 Read 100 0"])
