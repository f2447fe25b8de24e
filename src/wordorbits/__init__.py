"""Factor complexity of infinite words under permutation group actions.

A small exact-combinatorics toolkit: generate prefixes of infinite words
(Sturmian directive sequences, substitution fixed points, periodic and
explicit words), enumerate their factor sets, act on factors with permutation
groups, count orbit classes against the epsilon(G) + 1 lower bound, and build
the interval-exchange witnesses that meet the bound on Sturmian words.
"""

from .complexity import (BlockPartition, ComplexityRow, ComplexityTable,
                         OrbitPartition, block_classes, complexity_table,
                         is_abelian_transitive, orbit_classes, p_value,
                         verify_complexity_bound)
from .construct import (ChristoffelArray, ConjugacyScan, FineWilfData,
                        WitnessReport, build_conjugate_witness,
                        build_isomorphic_witness, christoffel_array,
                        conjugacy_scan, fine_wilf_data, modular_inverse,
                        sturmian_cycle)
from .perm import (AbelianSpec, GroupSizeError, PermGroup, Permutation,
                   PointOrbits, abc_permutation, normalize_spec, parse_cycles,
                   parse_group_spec)
from .words import (APERIODIC_NO, APERIODIC_UNKNOWN, APERIODIC_YES,
                    BalanceReport, ExplicitWord, FactorSet, InternalCheckError,
                    PeriodicWord, StabilizationError, SturmianWord,
                    SubstitutionWord, WordSource, abelian_equiv,
                    bispecial_ladder, factors, fibonacci, is_balanced,
                    is_rich_in, parikh, parse_word_spec, restrict, reverse,
                    special_factors, substitution, thue_morse)

__version__ = "0.1.0"
