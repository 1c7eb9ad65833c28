import xml.etree.ElementTree as ET

from spincavity import ScanConfig, lorentzian_spectrum
from spincavity.svgplot import render_spectra, render_sweep_map

SVG_TEXT = "{http://www.w3.org/2000/svg}text"


def test_labels_and_title_are_escaped():
    spec = lorentzian_spectrum(30.0, 0.0, ScanConfig(-50, 50, 21))
    svg = render_spectra([(spec, "a<b & c", False)], title='"R" > 0 & <dip>')
    texts = [t.text for t in ET.fromstring(svg).iter(SVG_TEXT)]
    assert "a<b & c" in texts
    assert '"R" > 0 & <dip>' in texts


def test_sweep_map_is_well_formed():
    spec = lorentzian_spectrum(30.0, 0.0, ScanConfig(-50, 50, 21),
                               meta={"field_T": 1.5})
    root = ET.fromstring(render_sweep_map([spec], title="B < 2 T & rising"))
    texts = [t.text for t in root.iter(SVG_TEXT)]
    assert "B < 2 T & rising" in texts
    assert "1.5 T" in texts
