//! One replica node process: `replica_node --config <map file> --node
//! <id> --data <dir> [--no-auto-follow]` (see
//! [`magicrecs_replica::Node::run_process`]).

fn main() {
    magicrecs_replica::Node::run_process(std::env::args().skip(1));
}
