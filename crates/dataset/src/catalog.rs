//! The Table 1 machine catalog: 17 processor families, 39 CPU nicknames,
//! 3 machines per nickname — 117 machines in total.
//!
//! Per the paper, "different CPU nicknames reflect differences in
//! microarchitecture, chip technology, cache sizes, bus speed, etc." and
//! each nickname contributes three concrete machines. We reproduce this by
//! defining one [`MicroArch`] template per nickname and deriving the three
//! machines with deterministic per-instance variation (frequency grade,
//! cache configuration, memory speed) — the way real SPEC submissions of
//! the same CPU differ across system vendors.

use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, SeedableRng};

use crate::machine::{Machine, ProcessorFamily};
use crate::microarch::MicroArch;

/// One nickname row of Table 1: the microarchitecture template shared by
/// its three machines.
#[derive(Debug, Clone)]
pub struct NicknameSpec {
    /// Processor family the nickname belongs to.
    pub family: ProcessorFamily,
    /// CPU nickname, e.g. `"Gainestown"`.
    pub nickname: &'static str,
    /// System release year used for the temporal experiments.
    pub year: u16,
    /// Microarchitecture template.
    pub template: MicroArch,
}

#[allow(clippy::too_many_arguments)]
fn spec(
    family: ProcessorFamily,
    nickname: &'static str,
    year: u16,
    freq_ghz: f64,
    width: f64,
    pipeline_eff: f64,
    static_bonus: f64,
    l1d_kib: f64,
    l2_kib: f64,
    l3_kib: f64,
    mem_lat_ns: f64,
    mem_bw_gbs: f64,
    branch_penalty: f64,
    branch_pred_scale: f64,
    fp_cost: f64,
    prefetch_eff: f64,
    mlp_capability: f64,
    compiler_gain: f64,
) -> NicknameSpec {
    NicknameSpec {
        family,
        nickname,
        year,
        template: MicroArch {
            freq_ghz,
            width,
            pipeline_eff,
            static_bonus,
            l1d_kib,
            l2_kib,
            l3_kib,
            l2_lat_cycles: 12.0,
            l3_lat_cycles: 25.0,
            mem_lat_ns,
            mem_bw_gbs,
            branch_penalty,
            branch_pred_scale,
            fp_cost,
            prefetch_eff,
            mlp_capability,
            compiler_gain,
        },
    }
}

/// The 39 nickname templates of Table 1.
///
/// Values are realistic for each design's era: frequency, issue width,
/// cache hierarchy, memory latency/bandwidth, branch machinery, FPU
/// strength, prefetching, and memory-level-parallelism capability.
#[rustfmt::skip] // keep the one-row-per-entry data table aligned
pub fn nickname_specs() -> Vec<NicknameSpec> {
    use ProcessorFamily as F;
    vec![
        // ----- AMD Opteron (K10): 3-wide OoO, integrated MC, L3 -----
        spec(F::OpteronK10, "Barcelona", 2007, 2.3, 3.0, 0.74, 0.05, 64.0, 512.0, 2048.0, 60.0, 10.5, 12.0, 0.90, 0.60, 0.60, 0.55, 0.05),
        spec(F::OpteronK10, "Istanbul", 2009, 2.6, 3.0, 0.76, 0.05, 64.0, 512.0, 6144.0, 52.0, 12.8, 12.0, 0.85, 0.55, 0.70, 0.60, 0.05),
        spec(F::OpteronK10, "Shanghai", 2009, 2.7, 3.0, 0.75, 0.05, 64.0, 512.0, 6144.0, 55.0, 12.0, 12.0, 0.88, 0.55, 0.65, 0.58, 0.05),
        // ----- AMD Opteron (K8): 3-wide OoO, integrated MC, no L3 -----
        spec(F::OpteronK8, "Santa Rosa", 2006, 2.8, 3.0, 0.70, 0.05, 64.0, 1024.0, 0.0, 62.0, 8.0, 11.0, 1.00, 0.70, 0.50, 0.45, 0.05),
        spec(F::OpteronK8, "Troy", 2005, 2.6, 3.0, 0.68, 0.05, 64.0, 1024.0, 0.0, 68.0, 6.4, 11.0, 1.05, 0.75, 0.45, 0.42, 0.05),
        // ----- AMD Phenom: K10 desktop -----
        spec(F::Phenom, "Agena", 2008, 2.4, 3.0, 0.73, 0.05, 64.0, 512.0, 2048.0, 58.0, 10.0, 12.0, 0.92, 0.62, 0.60, 0.53, 0.05),
        spec(F::Phenom, "Deneb", 2009, 3.0, 3.0, 0.76, 0.05, 64.0, 512.0, 6144.0, 52.0, 12.5, 12.0, 0.85, 0.55, 0.70, 0.58, 0.05),
        // ----- AMD Turion: mobile K8 -----
        spec(F::Turion, "Trinidad", 2006, 2.0, 3.0, 0.65, 0.05, 64.0, 512.0, 0.0, 75.0, 5.0, 11.0, 1.10, 0.80, 0.40, 0.40, 0.05),
        // ----- IBM POWER5: wide OoO, big off-chip L3, deep memory -----
        spec(F::Power5, "POWER5+", 2005, 1.9, 4.0, 0.78, 0.10, 32.0, 1920.0, 18432.0, 90.0, 12.0, 13.0, 0.80, 0.35, 0.55, 0.55, 0.05),
        // ----- IBM POWER6: very high clock, in-order, huge caches -----
        spec(F::Power6, "POWER6", 2008, 4.7, 4.0, 0.45, 0.15, 64.0, 4096.0, 32768.0, 100.0, 16.0, 15.0, 0.90, 0.60, 0.65, 0.50, 0.05),
        // ----- Intel Core 2: 4-wide OoO, shared L2, FSB memory -----
        spec(F::Core2, "Allendale", 2007, 2.2, 4.0, 0.78, 0.06, 32.0, 2048.0, 0.0, 70.0, 8.5, 13.0, 0.75, 0.50, 0.70, 0.60, 0.05),
        spec(F::Core2, "Conroe", 2006, 2.4, 4.0, 0.78, 0.06, 32.0, 4096.0, 0.0, 68.0, 8.5, 13.0, 0.75, 0.50, 0.70, 0.60, 0.05),
        spec(F::Core2, "Kentsfield", 2007, 2.66, 4.0, 0.78, 0.06, 32.0, 4096.0, 0.0, 70.0, 8.5, 13.0, 0.75, 0.50, 0.70, 0.60, 0.05),
        spec(F::Core2, "Merom-2M", 2007, 2.0, 4.0, 0.77, 0.06, 32.0, 2048.0, 0.0, 78.0, 5.3, 13.0, 0.78, 0.52, 0.65, 0.58, 0.05),
        spec(F::Core2, "Penryn-3M", 2008, 2.4, 4.0, 0.82, 0.06, 32.0, 3072.0, 0.0, 72.0, 6.4, 13.0, 0.72, 0.45, 0.73, 0.62, 0.05),
        spec(F::Core2, "Wolfdale", 2008, 3.0, 4.0, 0.82, 0.06, 32.0, 6144.0, 0.0, 62.0, 10.6, 13.0, 0.72, 0.45, 0.73, 0.62, 0.05),
        spec(F::Core2, "Yorkfield", 2008, 2.83, 4.0, 0.82, 0.06, 32.0, 6144.0, 0.0, 64.0, 10.6, 13.0, 0.72, 0.45, 0.73, 0.62, 0.05),
        // ----- Intel Core Duo: Yonah, mobile 3-wide -----
        spec(F::CoreDuo, "Yonah", 2006, 2.0, 3.0, 0.70, 0.05, 32.0, 2048.0, 0.0, 75.0, 5.3, 12.0, 0.85, 0.60, 0.55, 0.50, 0.05),
        // ----- Intel Core i7: Nehalem desktop XE, integrated MC -----
        spec(F::CoreI7, "Bloomfield XE", 2008, 3.2, 4.0, 0.76, 0.06, 32.0, 256.0, 8192.0, 48.0, 22.0, 14.0, 0.65, 0.48, 0.70, 0.78, 0.05),
        // ----- Intel Itanium: Montecito, 6-wide EPIC, giant L3 -----
        spec(F::Itanium, "Montecito", 2006, 1.6, 6.0, 0.50, 0.55, 16.0, 256.0, 12288.0, 120.0, 8.5, 6.0, 0.70, 0.22, 0.45, 0.45, 0.72),
        // ----- Intel Pentium D: Presler, NetBurst -----
        spec(F::PentiumD, "Presler", 2006, 3.4, 3.0, 0.45, 0.03, 16.0, 2048.0, 0.0, 80.0, 6.4, 25.0, 1.15, 0.70, 0.60, 0.45, 0.05),
        // ----- Intel Pentium Dual-Core: cut-down Allendale -----
        spec(F::PentiumDualCore, "Allendale", 2007, 2.0, 4.0, 0.76, 0.06, 32.0, 1024.0, 0.0, 72.0, 6.4, 13.0, 0.78, 0.55, 0.65, 0.58, 0.05),
        // ----- Intel Pentium M: Dothan, mobile -----
        spec(F::PentiumM, "Dothan", 2004, 2.0, 3.0, 0.66, 0.05, 32.0, 2048.0, 0.0, 85.0, 3.2, 12.0, 0.90, 0.65, 0.45, 0.45, 0.05),
        // ----- Intel Xeon: spans NetBurst to Nehalem-EP -----
        spec(F::Xeon, "Bloomfield", 2009, 3.2, 4.0, 0.76, 0.06, 32.0, 256.0, 8192.0, 46.0, 22.0, 14.0, 0.65, 0.48, 0.70, 0.78, 0.05),
        spec(F::Xeon, "Clovertown", 2007, 2.66, 4.0, 0.78, 0.06, 32.0, 4096.0, 0.0, 75.0, 8.5, 13.0, 0.75, 0.50, 0.67, 0.58, 0.05),
        spec(F::Xeon, "Conroe", 2006, 2.4, 4.0, 0.78, 0.06, 32.0, 4096.0, 0.0, 70.0, 8.5, 13.0, 0.75, 0.50, 0.70, 0.60, 0.05),
        spec(F::Xeon, "Dunnington", 2008, 2.66, 4.0, 0.79, 0.06, 32.0, 3072.0, 16384.0, 85.0, 8.5, 13.0, 0.73, 0.48, 0.70, 0.60, 0.05),
        spec(F::Xeon, "Gainestown", 2009, 3.2, 4.0, 0.76, 0.06, 32.0, 256.0, 8192.0, 42.0, 26.0, 14.0, 0.65, 0.48, 0.72, 0.82, 0.05),
        spec(F::Xeon, "Harpertown", 2008, 3.0, 4.0, 0.82, 0.06, 32.0, 6144.0, 0.0, 70.0, 10.6, 13.0, 0.72, 0.45, 0.73, 0.62, 0.05),
        spec(F::Xeon, "Kentsfield", 2007, 2.66, 4.0, 0.78, 0.06, 32.0, 4096.0, 0.0, 72.0, 8.5, 13.0, 0.75, 0.50, 0.70, 0.60, 0.05),
        spec(F::Xeon, "Lynnfield", 2009, 2.93, 4.0, 0.76, 0.06, 32.0, 256.0, 8192.0, 50.0, 19.0, 14.0, 0.66, 0.48, 0.68, 0.76, 0.05),
        spec(F::Xeon, "Tigerton", 2007, 2.93, 4.0, 0.78, 0.06, 32.0, 4096.0, 0.0, 80.0, 8.5, 13.0, 0.75, 0.50, 0.67, 0.58, 0.05),
        spec(F::Xeon, "Tulsa", 2006, 3.4, 3.0, 0.44, 0.03, 16.0, 1024.0, 16384.0, 95.0, 6.4, 26.0, 1.15, 0.70, 0.57, 0.42, 0.05),
        spec(F::Xeon, "Wolfdale-DP", 2008, 3.33, 4.0, 0.82, 0.06, 32.0, 6144.0, 0.0, 65.0, 10.6, 13.0, 0.72, 0.45, 0.73, 0.62, 0.05),
        spec(F::Xeon, "Woodcrest", 2006, 3.0, 4.0, 0.78, 0.06, 32.0, 4096.0, 0.0, 70.0, 8.5, 13.0, 0.75, 0.50, 0.70, 0.60, 0.05),
        spec(F::Xeon, "Yorkfield", 2008, 2.83, 4.0, 0.82, 0.06, 32.0, 6144.0, 0.0, 66.0, 10.6, 13.0, 0.72, 0.45, 0.73, 0.62, 0.05),
        // ----- SPARC64 VI / VII: wide in-order-ish server SPARC -----
        spec(F::Sparc64Vi, "Olympus-C", 2007, 2.4, 4.0, 0.60, 0.18, 128.0, 6144.0, 0.0, 110.0, 8.0, 14.0, 0.95, 0.45, 0.50, 0.45, 0.05),
        spec(F::Sparc64Vii, "Jupiter", 2008, 2.52, 4.0, 0.63, 0.18, 128.0, 6144.0, 0.0, 100.0, 10.0, 14.0, 0.92, 0.42, 0.55, 0.48, 0.05),
        // ----- UltraSPARC III: Cheetah+, early 2000s -----
        spec(F::UltraSparcIii, "Cheetah+", 2002, 1.05, 4.0, 0.50, 0.10, 64.0, 8192.0, 0.0, 150.0, 2.4, 8.0, 1.25, 0.80, 0.30, 0.25, 0.05),
    ]
}

/// Number of machines instantiated per nickname (Table 1: three).
pub const MACHINES_PER_NICKNAME: usize = 3;

/// Instantiates the full 117-machine catalog.
///
/// Each nickname yields [`MACHINES_PER_NICKNAME`] machines whose frequency,
/// cache sizes and memory speed vary deterministically around the template
/// (seeded by `seed`), mimicking the spread of real SPEC submissions for
/// one CPU across system vendors and SKUs.
pub fn build_machines(seed: u64) -> Vec<Machine> {
    let specs = nickname_specs();
    let mut machines = Vec::with_capacity(specs.len() * MACHINES_PER_NICKNAME);
    for (si, s) in specs.iter().enumerate() {
        for instance in 0..MACHINES_PER_NICKNAME {
            // Each (nickname, instance) has its own deterministic stream.
            let mut rng = StdRng::seed_from_u64(
                seed ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (instance as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            );
            let mut micro = s.template;
            // The three submissions of a nickname differ in SKU *and*
            // platform, the way real SPEC submissions do: a high-clock
            // desktop bin on a modest board, a mid bin, and a lower bin on
            // a server board with a stronger memory subsystem. Clock and
            // memory grades are anti-correlated, so the best instance of a
            // nickname depends on the workload.
            let clock_grade = [1.10, 1.00, 0.88][instance];
            let bw_grade = [0.86, 1.00, 1.18][instance];
            let lat_grade = [1.08, 1.00, 0.90][instance];
            micro.freq_ghz *= clock_grade * (1.0 + rng.gen_range(-0.03..0.03));
            micro.mem_bw_gbs *= bw_grade * (1.0 + rng.gen_range(-0.05..0.05));
            micro.mem_lat_ns *= lat_grade * (1.0 + rng.gen_range(-0.05..0.05));
            machines.push(Machine {
                name: format!("{} #{}", s.nickname, instance + 1),
                family: s.family,
                nickname: s.nickname.to_owned(),
                year: s.year,
                micro,
            });
        }
    }
    machines
}

/// Instantiates a scale-test catalog of exactly `n` machines.
///
/// The 39 nickname templates are expanded in Table 1 order, each
/// contributing `n / 39` machines (the first `n % 39` nicknames one more),
/// so machines of one nickname — and therefore one processor family — stay
/// **contiguous in column order** exactly like the paper catalog. That
/// contiguity is what lets family folds and release-year eras map onto
/// column blocks.
///
/// Per-instance variation follows the same three SKU grades as
/// [`build_machines`], cycling every three instances, with slightly wider
/// jitter so a 10k-machine catalog does not collapse onto 117 points.
/// Deterministic given `(seed, n)`.
pub fn build_scaled_machines(seed: u64, n: usize) -> Vec<Machine> {
    let specs = nickname_specs();
    let base = n / specs.len();
    let extra = n % specs.len();
    let mut machines = Vec::with_capacity(n);
    for (si, s) in specs.iter().enumerate() {
        let count = base + usize::from(si < extra);
        for instance in 0..count {
            // Each (nickname, instance) has its own deterministic stream,
            // disjoint from the Table 1 catalog's streams.
            let mut rng = StdRng::seed_from_u64(
                seed ^ 0x5CA1_ED00_0000_0000
                    ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (instance as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            );
            let mut micro = s.template;
            let clock_grade = [1.10, 1.00, 0.88][instance % 3];
            let bw_grade = [0.86, 1.00, 1.18][instance % 3];
            let lat_grade = [1.08, 1.00, 0.90][instance % 3];
            micro.freq_ghz *= clock_grade * (1.0 + rng.gen_range(-0.05..0.05));
            micro.mem_bw_gbs *= bw_grade * (1.0 + rng.gen_range(-0.08..0.08));
            micro.mem_lat_ns *= lat_grade * (1.0 + rng.gen_range(-0.08..0.08));
            micro.l2_kib *= 1.0 + rng.gen_range(-0.05..0.05);
            micro.prefetch_eff =
                (micro.prefetch_eff * (1.0 + rng.gen_range(-0.08..0.08))).clamp(0.0, 1.0);
            machines.push(Machine {
                name: format!("{} ·{}", s.nickname, instance + 1),
                family: s.family,
                nickname: s.nickname.to_owned(),
                year: s.year,
                micro,
            });
        }
    }
    machines
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn thirty_nine_nicknames() {
        assert_eq!(nickname_specs().len(), 39);
    }

    #[test]
    fn one_hundred_seventeen_machines() {
        assert_eq!(build_machines(42).len(), 117);
    }

    #[test]
    fn family_nickname_counts_match_table1() {
        let mut counts: BTreeMap<ProcessorFamily, usize> = BTreeMap::new();
        for s in nickname_specs() {
            *counts.entry(s.family).or_default() += 1;
        }
        assert_eq!(counts[&ProcessorFamily::OpteronK10], 3);
        assert_eq!(counts[&ProcessorFamily::OpteronK8], 2);
        assert_eq!(counts[&ProcessorFamily::Phenom], 2);
        assert_eq!(counts[&ProcessorFamily::Turion], 1);
        assert_eq!(counts[&ProcessorFamily::Power5], 1);
        assert_eq!(counts[&ProcessorFamily::Power6], 1);
        assert_eq!(counts[&ProcessorFamily::Core2], 7);
        assert_eq!(counts[&ProcessorFamily::CoreDuo], 1);
        assert_eq!(counts[&ProcessorFamily::CoreI7], 1);
        assert_eq!(counts[&ProcessorFamily::Itanium], 1);
        assert_eq!(counts[&ProcessorFamily::PentiumD], 1);
        assert_eq!(counts[&ProcessorFamily::PentiumDualCore], 1);
        assert_eq!(counts[&ProcessorFamily::PentiumM], 1);
        assert_eq!(counts[&ProcessorFamily::Xeon], 13);
        assert_eq!(counts[&ProcessorFamily::Sparc64Vi], 1);
        assert_eq!(counts[&ProcessorFamily::Sparc64Vii], 1);
        assert_eq!(counts[&ProcessorFamily::UltraSparcIii], 1);
        assert_eq!(counts.len(), 17);
    }

    #[test]
    fn all_templates_plausible() {
        for s in nickname_specs() {
            assert!(s.template.is_plausible(), "{} implausible", s.nickname);
        }
        for m in build_machines(7) {
            assert!(m.micro.is_plausible(), "{} implausible", m.name);
        }
    }

    #[test]
    fn machines_are_deterministic_per_seed() {
        assert_eq!(build_machines(1), build_machines(1));
        assert_ne!(build_machines(1), build_machines(2));
    }

    #[test]
    fn instances_of_a_nickname_differ() {
        let machines = build_machines(42);
        // First three machines share the Barcelona nickname.
        assert_eq!(machines[0].nickname, machines[1].nickname);
        assert_ne!(machines[0].micro, machines[1].micro);
        assert_ne!(machines[1].micro, machines[2].micro);
    }

    #[test]
    fn machine_names_unique() {
        let machines = build_machines(42);
        let names: std::collections::BTreeSet<&str> =
            machines.iter().map(|m| m.name.as_str()).collect();
        // "Allendale" appears in two families and "Conroe"/"Kentsfield"/
        // "Yorkfield" in both Core 2 and Xeon; names collide intentionally,
        // so uniqueness holds per (family, name).
        let full: std::collections::BTreeSet<String> = machines
            .iter()
            .map(|m| format!("{}/{}", m.family, m.name))
            .collect();
        assert_eq!(full.len(), 117);
        assert!(names.len() >= 39);
    }

    #[test]
    fn scaled_catalog_has_exact_count_and_contiguous_families() {
        for n in [39usize, 40, 117, 500, 1000] {
            let machines = build_scaled_machines(7, n);
            assert_eq!(machines.len(), n);
            // Families form contiguous runs: once a family ends it never
            // reappears (the property block pruning relies on).
            let mut seen = std::collections::BTreeSet::new();
            let mut current = None;
            for m in &machines {
                if current != Some(m.family) {
                    assert!(
                        seen.insert(m.family),
                        "family {} reappears at n={n}",
                        m.family
                    );
                    current = Some(m.family);
                }
            }
        }
    }

    #[test]
    fn scaled_catalog_is_deterministic_and_plausible() {
        assert_eq!(build_scaled_machines(3, 200), build_scaled_machines(3, 200));
        assert_ne!(build_scaled_machines(3, 200), build_scaled_machines(4, 200));
        for m in build_scaled_machines(11, 1000) {
            assert!(m.micro.is_plausible(), "{} implausible", m.name);
        }
    }

    #[test]
    fn scaled_instances_of_a_nickname_differ() {
        let machines = build_scaled_machines(42, 390);
        // 390 = 39 × 10: ten instances per nickname, first ten share one.
        assert_eq!(machines[0].nickname, machines[9].nickname);
        for w in machines[..10].windows(2) {
            assert_ne!(w[0].micro, w[1].micro);
        }
    }

    #[test]
    fn years_span_2002_to_2009() {
        let machines = build_machines(42);
        let min = machines.iter().map(|m| m.year).min().unwrap();
        let max = machines.iter().map(|m| m.year).max().unwrap();
        assert_eq!(min, 2002);
        assert_eq!(max, 2009);
        // Enough 2009 targets and 2008 predictive machines for Tables 3-4.
        let n2009 = machines.iter().filter(|m| m.year == 2009).count();
        let n2008 = machines.iter().filter(|m| m.year == 2008).count();
        assert!(n2009 >= 12, "need enough 2009 targets, got {n2009}");
        assert!(
            n2008 >= 12,
            "need enough 2008 predictive machines, got {n2008}"
        );
    }
}
