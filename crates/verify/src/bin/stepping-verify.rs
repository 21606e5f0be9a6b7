//! `stepping-verify` — lint a SteppingNet checkpoint from the command line.
//!
//! Rebuilds the network architecture from a preset, loads the checkpoint
//! and runs the full rule set (R1–R6). Exit code 0 means no error-severity
//! violation was found, 1 means the checkpoint is broken, 2 means the
//! invocation itself was invalid.
//!
//! ```text
//! stepping-verify --arch mlp:16:12,8 --classes 4 --subnets 3 model.snet
//! stepping-verify --arch lenet5 --scale 0.25 --expansion 2.0 --json ckpt.snet
//! ```

use std::process::ExitCode;

use stepping_core::checkpoint::load_state;
use stepping_models::Architecture;
use stepping_tensor::Shape;
use stepping_verify::{analyze, check_blob, AnalyzerOptions, Report};

struct Args {
    arch: String,
    classes: usize,
    subnets: usize,
    seed: u64,
    expansion: f64,
    scale: f64,
    input: Option<Vec<usize>>,
    threshold: f32,
    budgets: Option<Vec<u64>>,
    json: bool,
    checkpoint: String,
}

const USAGE: &str = "usage: stepping-verify [options] <checkpoint.snet>

options:
  --arch <name>        architecture preset: lenet-3c1l | lenet5 | vgg16 |
                       alexnet | mlp:<in>:<h1,h2,...>   (required)
  --classes <n>        output classes (default 10)
  --subnets <n>        subnet count the checkpoint was trained with (default 4)
  --seed <n>           weight-init seed used at build time (default 0)
  --expansion <r>      width-expansion ratio used at build time (default 1.0)
  --scale <r>          width scale applied to the preset (default 1.0)
  --input <c,h,w|f>    override the preset's input shape
  --threshold <t>      prune threshold for R4/R5 and MAC counts (default 1e-5)
  --budgets <a,b,...>  per-subnet MAC budgets P_i for R3 (default: skip R3)
  --json               emit the report as JSON instead of text
";

fn parse_list<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<T>()
                .map_err(|_| format!("bad list element {p:?}"))
        })
        .collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        arch: String::new(),
        classes: 10,
        subnets: 4,
        seed: 0,
        expansion: 1.0,
        scale: 1.0,
        input: None,
        threshold: 1e-5,
        budgets: None,
        json: false,
        checkpoint: String::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--arch" => args.arch = value("--arch")?.to_string(),
            "--classes" => {
                args.classes = value("--classes")?.parse().map_err(|e| format!("{e}"))?
            }
            "--subnets" => {
                args.subnets = value("--subnets")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--expansion" => {
                args.expansion = value("--expansion")?.parse().map_err(|e| format!("{e}"))?
            }
            "--scale" => args.scale = value("--scale")?.parse().map_err(|e| format!("{e}"))?,
            "--input" => args.input = Some(parse_list(value("--input")?)?),
            "--threshold" => {
                args.threshold = value("--threshold")?.parse().map_err(|e| format!("{e}"))?
            }
            "--budgets" => args.budgets = Some(parse_list(value("--budgets")?)?),
            "--json" => args.json = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => return Err(format!("unknown option {other}")),
            path => {
                if !args.checkpoint.is_empty() {
                    return Err("more than one checkpoint path given".into());
                }
                args.checkpoint = path.to_string();
            }
        }
    }
    if args.arch.is_empty() {
        return Err("--arch is required".into());
    }
    if args.checkpoint.is_empty() {
        return Err("a checkpoint path is required".into());
    }
    Ok(args)
}

/// Resolves the `--arch` string to an [`Architecture`].
fn resolve_arch(args: &Args) -> Result<Architecture, String> {
    let arch = match args.arch.as_str() {
        "lenet-3c1l" | "lenet_3c1l" => Architecture::lenet_3c1l(args.classes),
        "lenet5" => Architecture::lenet5(args.classes),
        "vgg16" => Architecture::vgg16(args.classes),
        "alexnet" => Architecture::alexnet(args.classes),
        spec if spec.starts_with("mlp:") => {
            let parts: Vec<&str> = spec.splitn(3, ':').collect();
            if parts.len() != 3 {
                return Err("mlp spec must be mlp:<in>:<h1,h2,...>".into());
            }
            let input: usize = parts[1]
                .parse()
                .map_err(|_| "bad mlp input width".to_string())?;
            let hidden: Vec<usize> = parse_list(parts[2])?;
            Architecture::mlp(input, &hidden, args.classes)
        }
        other => return Err(format!("unknown architecture {other:?}")),
    };
    let mut arch = if (args.scale - 1.0).abs() > f64::EPSILON {
        arch.scaled(args.scale)
    } else {
        arch
    };
    if let Some(dims) = &args.input {
        arch = arch.with_input(Shape::of(dims));
    }
    Ok(arch)
}

fn run(args: &Args) -> Result<Report, String> {
    let arch = resolve_arch(args)?;
    let mut net = arch
        .build(args.subnets, args.seed, args.expansion)
        .map_err(|e| format!("cannot build {}: {e}", arch.name))?;
    let blob = std::fs::read(&args.checkpoint)
        .map_err(|e| format!("cannot read {}: {e}", args.checkpoint))?;

    let mut report = Report::default();
    // R6 first: it decides whether the blob is loadable at all.
    report.violations.extend(check_blob(&net, &blob));
    if load_state(&mut net, &blob).is_ok() {
        let opts = AnalyzerOptions {
            prune_threshold: args.threshold,
            mac_budgets: args.budgets.clone(),
            ..AnalyzerOptions::default()
        };
        report.merge(analyze(&net, &opts));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            if args.json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let a = parse_args(&argv(&[
            "--arch",
            "mlp:16:12,8",
            "--classes",
            "4",
            "--subnets",
            "3",
            "--budgets",
            "100,200,300",
            "--json",
            "model.snet",
        ]))
        .unwrap();
        assert_eq!(a.arch, "mlp:16:12,8");
        assert_eq!(a.classes, 4);
        assert_eq!(a.subnets, 3);
        assert_eq!(a.budgets, Some(vec![100, 200, 300]));
        assert!(a.json);
        assert_eq!(a.checkpoint, "model.snet");
    }

    #[test]
    fn rejects_missing_arch_or_checkpoint() {
        assert!(parse_args(&argv(&["model.snet"])).is_err());
        assert!(parse_args(&argv(&["--arch", "lenet5"])).is_err());
        assert!(parse_args(&argv(&["--arch", "lenet5", "--bogus", "x.snet"])).is_err());
    }

    #[test]
    fn resolves_mlp_spec() {
        let mut a = parse_args(&argv(&["--arch", "mlp:16:12,8", "x.snet"])).unwrap();
        a.classes = 5;
        let arch = resolve_arch(&a).unwrap();
        assert_eq!(arch.input.dims(), &[16]);
        assert_eq!(arch.classes, 5);
        assert!(resolve_arch(&Args {
            arch: "nope".into(),
            ..a
        })
        .is_err());
    }
}
