"""A verifiable laboratory for the 00/1101 tag system.

Simulates the system exactly at speed, certifies that the embedded family
A^n B C^m grows forever via a closed chain of full-pass derivations, and
provides the row-language machinery for searching periodic-evolution
scaffolds.  Each public name lives in its submodule: ``core``, ``algebra``,
``words``, ``certify`` and ``blocks`` (``cli`` is the command line).
"""

from taglab import algebra, blocks, certify, core, words

__version__ = "0.1.0"
