use crate::heatmap::Heatmap;
use crate::stats::{Candlestick, Cdf, Percentiles};
use crate::tsc::{
    cycles_per_ns, cycles_per_second, cycles_to_ns, measure_batch, now, ns_to_cycles, overhead,
    rdtsc_serialized,
};

mod tsc {
    use super::*;

    #[test]
    fn tsc_is_monotonic() {
        let mut last = rdtsc_serialized();
        for _ in 0..1000 {
            let now = rdtsc_serialized();
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn now_never_goes_backwards() {
        let mut last = now();
        for _ in 0..100_000 {
            let t = now();
            assert!(t >= last, "{t} < {last}");
            last = t;
        }
    }

    #[test]
    fn now_agrees_with_instant_over_a_sleep() {
        let wall = std::time::Instant::now();
        let t0 = now();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let t1 = now();
        let wall_ns = wall.elapsed().as_nanos() as f64;
        let tsc_ns = cycles_to_ns(t1 - t0) as f64;
        let err = (tsc_ns - wall_ns).abs() / wall_ns;
        assert!(err < 0.05, "tsc {tsc_ns} ns vs Instant {wall_ns} ns");
    }

    #[test]
    fn overhead_is_small_and_stable() {
        let o1 = overhead();
        let o2 = overhead();
        assert_eq!(o1, o2, "calibrated once");
        assert!(o1 > 0);
        assert!(o1 < 10_000, "bracket overhead {o1} looks wrong");
    }

    #[test]
    fn frequency_is_plausible() {
        let f = cycles_per_second();
        // Anything from 100 MHz (ns fallback would be 1e9) to 10 GHz.
        assert!(f > 1e8 && f < 2e10, "freq {f}");
    }

    #[test]
    fn measure_batch_returns_value_and_cycles() {
        let (cycles, sum) = measure_batch(|| (0..10_000u64).sum::<u64>());
        assert_eq!(sum, 49_995_000);
        assert!(cycles > 0);
    }

    #[test]
    fn ns_calibration_round_trips() {
        let per_ns = cycles_per_ns();
        assert!(per_ns > 0.1 && per_ns < 20.0, "cycles/ns {per_ns}");
        assert_eq!(cycles_to_ns(0), 0);
        assert_eq!(ns_to_cycles(0), 0);
        // Round-tripping a µs-scale value loses at most rounding error.
        let ns = 1_000_000u64;
        let back = cycles_to_ns(ns_to_cycles(ns));
        let err = back.abs_diff(ns);
        assert!(err <= 2, "round trip {ns} -> {back}");
        // One second of cycles converts back to ~1e9 ns.
        let second = cycles_per_second() as u64;
        let ns_per_second = cycles_to_ns(second);
        assert!(ns_per_second.abs_diff(1_000_000_000) < 20_000_000);
    }
}

mod stats {
    use super::*;

    #[test]
    fn percentiles_of_known_data() {
        let samples: Vec<u64> = (1..=100).collect();
        let p = Percentiles::from_samples(&samples).unwrap();
        assert_eq!(p.mean, 50.5);
        assert_eq!(p.p50, 50);
        assert_eq!(p.p75, 75);
        assert_eq!(p.p95, 95);
        assert_eq!(p.p99, 99);
    }

    #[test]
    fn percentiles_edge_cases() {
        assert!(Percentiles::from_samples(&[]).is_none());
        let p = Percentiles::from_samples(&[7]).unwrap();
        assert_eq!((p.p50, p.p99), (7, 7));
        assert_eq!(p.mean, 7.0);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let cdf = Cdf::from_samples(&[10, 20, 20, 30]);
        assert_eq!(cdf.at(9), 0.0);
        assert_eq!(cdf.at(10), 0.25);
        assert_eq!(cdf.at(20), 0.75);
        assert_eq!(cdf.at(30), 1.0);
        assert_eq!(cdf.at(u64::MAX), 1.0);
        let pts = cdf.points(40, 10);
        assert_eq!(pts.len(), 11);
        assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn candlestick_five_numbers() {
        let samples: Vec<u64> = (1..=100).collect();
        let c = Candlestick::from_samples(&samples).unwrap();
        assert_eq!(c.p5, 5);
        assert_eq!(c.q1, 25);
        assert_eq!(c.median, 50);
        assert_eq!(c.q3, 75);
        assert_eq!(c.p95, 95);
        assert!(c.render().contains("med=50"));
        assert!(Candlestick::from_samples(&[]).is_none());
    }
}

mod heatmap {
    use super::*;

    #[test]
    fn counts_and_total() {
        let mut h = Heatmap::new(33, 33);
        h.add(24, 24, 1000);
        h.add(8, 24, 5);
        assert_eq!(h.get(24, 24), 1000);
        assert_eq!(h.total(), 1005);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Heatmap::new(4, 4);
        h.add(100, 100, 3);
        assert_eq!(h.get(3, 3), 3);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn render_shows_intensity_decades() {
        let mut h = Heatmap::new(8, 4);
        h.add(0, 0, 1); // decade 0 -> '.'
        h.add(1, 0, 100); // decade 2 -> '-'
        h.add(2, 0, 1_000_000); // decade 6 -> '#'
        let s = h.render("x", "y");
        let bottom_row = s.lines().rev().nth(3).unwrap(); // row y=0
        assert!(bottom_row.contains('.'), "{s}");
        assert!(bottom_row.contains('-'), "{s}");
        assert!(bottom_row.contains('#'), "{s}");
        assert!(s.contains('x') && s.contains('y'));
    }
}
