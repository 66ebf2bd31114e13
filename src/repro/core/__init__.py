"""The paper's analyses (the primary contribution).

One module per part of the evaluation:

* :mod:`repro.core.adoption` -- longitudinal CMP adoption with the
  paper's interpolation and 30-day fade-out rules (Figure 6, I2);
* :mod:`repro.core.marketshare` -- cumulative marketshare as a function
  of toplist size (Figures 5, A.4--A.6, I1);
* :mod:`repro.core.switching` -- inter-CMP switching flows (Figure 4);
* :mod:`repro.core.vantage` -- vantage-point comparison over the toplist
  crawls (Tables 1 and A.3);
* :mod:`repro.core.customization` -- publisher dialog-customization
  classification (Section 4.1, I3);
* :mod:`repro.core.gvl_analysis` -- vendor purposes and lawful bases
  over the GVL history (Figures 7 and 8, I4/I5);
* :mod:`repro.core.timing` -- opt-out waterfall and dialog-interaction
  timing (Figures 9 and 10, I6/I7);
* :mod:`repro.core.timeline` -- privacy-law event alignment (Figure 6
  annotations);
* :mod:`repro.core.relatedwork` -- the sample-size/time-window
  comparison with prior work (Figure 1).
"""
