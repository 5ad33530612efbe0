//! Backend census: every in-process backend timed through `Backend::run`
//! on a 69-case generator grid, as a ratio to `Backend::Gustavson` — the
//! regenerable source of the README's "which backend wins where" table
//! and of the serving dispatcher's choice (Gustavson for everything that
//! fits in memory). `Backend::Distributed` is left out: it spawns a
//! worker fleet per call and is reached by the footprint rule only.
//!
//! ```text
//! cargo run --release --example backend_census
//! ```
//!
//! Takes a few minutes: the inner product is hundreds of times slower
//! than Gustavson on the order-4096 cases.

use sparch::serve::Backend;
use sparch::sparse::{gen, Csr};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-3 wall seconds of `backend` on `a · b`.
fn time(backend: Backend, a: &Csr, b: &Csr) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(backend.run(black_box(a), black_box(b)));
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The grid: `(label, A, B)`.
fn cases() -> Vec<(String, Csr, Csr)> {
    let mut cases = Vec::new();
    let mut square = |label: String, a: Csr| cases.push((label, a.clone(), a));
    for n in [256usize, 1024, 4096] {
        for degree in [1usize, 2, 4, 8, 16, 32] {
            square(
                format!("uniform n={n} deg={degree}"),
                gen::uniform_random(n, n, n * degree, 1),
            );
            square(
                format!("rmat n={n} deg={degree}"),
                gen::rmat_graph500(n, degree, 2),
            );
        }
        for half_width in [1usize, 4, 16, 64] {
            square(
                format!("banded n={n} hw={half_width}"),
                gen::banded(n, half_width, 0, 3),
            );
        }
        for alpha in [1.2, 2.0] {
            square(
                format!("powerlaw n={n} alpha={alpha}"),
                gen::powerlaw_rows(n, 8 * n, alpha, 4),
            );
        }
        // Two dense 8×8 tiles per block row on average.
        square(
            format!("blocks n={n}"),
            gen::block_sparse(n, n, 8, 16.0 / n as f64, 5),
        );
    }
    for nx in [8usize, 16] {
        square(format!("poisson {nx}^3"), gen::poisson3d(nx, nx, nx));
    }
    for n in [4usize, 8, 16, 32] {
        square(
            format!("near-dense n={n}"),
            gen::uniform_random(n, n, n * n * 3 / 4, 6),
        );
    }
    for n in [256usize, 1024, 4096] {
        let tall = gen::uniform_random(n, n / 8, n * 8, 7);
        let wide = gen::uniform_random(n / 8, n, n * 8, 8);
        cases.push((format!("tall*wide n={n}"), tall.clone(), wide.clone()));
        cases.push((format!("wide*tall n={n}"), wide, tall));
    }
    cases
}

/// One contender's record over the grid.
struct Tally {
    backend: Backend,
    wins: usize,
    /// Smallest and largest ratio to Gustavson, with the case it fell on.
    best: (f64, String),
    worst: (f64, String),
}

fn main() {
    let mut contenders: Vec<Tally> = Backend::ALL
        .into_iter()
        .filter(|&b| b != Backend::Gustavson && b != Backend::Distributed)
        .map(|backend| Tally {
            backend,
            wins: 0,
            best: (f64::INFINITY, String::new()),
            worst: (0.0, String::new()),
        })
        .collect();
    print!("{:<28} {:>12}", "case", "gustavson ms");
    for t in &contenders {
        print!(" {:>13}", t.backend.name());
    }
    println!("  winner");

    let cases = cases();
    for (label, a, b) in &cases {
        let base = time(Backend::Gustavson, a, b);
        print!("{label:<28} {:>12.3}", base * 1e3);
        // (ratio, index into `contenders`); Gustavson holds ratio 1.
        let mut winner = (1.0, None);
        for (i, t) in contenders.iter_mut().enumerate() {
            let ratio = time(t.backend, a, b) / base;
            print!(" {ratio:>12.2}x");
            if ratio < t.best.0 {
                t.best = (ratio, label.clone());
            }
            if ratio > t.worst.0 {
                t.worst = (ratio, label.clone());
            }
            if ratio < winner.0 {
                winner = (ratio, Some(i));
            }
        }
        match winner.1 {
            Some(i) => {
                contenders[i].wins += 1;
                println!("  {}", contenders[i].backend.name());
            }
            None => println!("  gustavson"),
        }
    }

    let lost: usize = contenders.iter().map(|t| t.wins).sum();
    println!(
        "\n{} cases; gustavson fastest in {}",
        cases.len(),
        cases.len() - lost
    );
    println!(
        "{:<14} {:>5}  {:>9}  {:<28} {:>9}  worst case",
        "backend", "wins", "best", "best case", "worst"
    );
    for t in &contenders {
        println!(
            "{:<14} {:>5}  {:>8.2}x  {:<28} {:>8.2}x  {}",
            t.backend.name(),
            t.wins,
            t.best.0,
            t.best.1,
            t.worst.0,
            t.worst.1
        );
    }
}
