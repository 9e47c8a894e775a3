//! Placement enforcement (§5.1).
//!
//! "For enforcing the decisions, before executing any application, the
//! system first defines the order of the GPU IDs by exporting the parameter
//! `CUDA_DEVICE_ORDER=PCI_BUS_ID`, and then, for each application, it
//! exposes only the specified GPU list from the scheduler decisions using
//! the parameter `CUDA_VISIBLE_DEVICES=$gpu_list`. For preventing
//! performance variability related to NUMA remote memory access, the
//! applications with only GPUs in the same socket are bound to the socket
//! using the command `numactl`."
//!
//! This module turns an [`Allocation`] into exactly that launch recipe.

use crate::state::Allocation;
use gts_topo::{MachineTopology, NumaInfo, SocketId};

/// Environment and command-prefix recipe for launching a placed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchPlan {
    /// Environment variables to export, in order.
    pub env: Vec<(String, String)>,
    /// `numactl` prefix for single-socket allocations.
    pub numactl_prefix: Option<String>,
}

impl LaunchPlan {
    /// Renders the full shell command line for a training command.
    pub fn command_line(&self, base_cmd: &str) -> String {
        let mut parts: Vec<String> = self.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        if let Some(prefix) = &self.numactl_prefix {
            parts.push(prefix.clone());
        }
        parts.push(base_cmd.to_string());
        parts.join(" ")
    }
}

/// Builds the §5.1 launch plan for an allocation on its (single) machine.
///
/// `numa` is the parsed `numactl --hardware` output when available; without
/// it the socket binding falls back to the generic
/// `--cpunodebind/--membind` form.
///
/// # Panics
///
/// Panics if the allocation spans machines — enforcement happens per
/// machine; anti-collocated jobs get one plan per shard via
/// [`Allocation::gpus_on`].
pub fn launch_plan(
    alloc: &Allocation,
    topo: &MachineTopology,
    numa: Option<&NumaInfo>,
) -> LaunchPlan {
    assert!(
        alloc.is_single_node(),
        "launch plans are per machine; split multi-node allocations first"
    );
    let machine = alloc.gpus[0].machine;
    let local = alloc.gpus_on(machine);

    let gpu_list = local
        .iter()
        .map(|g| g.0.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let env = vec![
        ("CUDA_DEVICE_ORDER".to_string(), "PCI_BUS_ID".to_string()),
        ("CUDA_VISIBLE_DEVICES".to_string(), gpu_list),
    ];

    // Socket binding only when every GPU lives on one socket.
    let sockets: Vec<SocketId> = {
        let mut s: Vec<SocketId> = local.iter().map(|&g| topo.socket_of(g)).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    let numactl_prefix = (sockets.len() == 1).then(|| {
        let socket = sockets[0];
        match numa {
            Some(info) => info.bind_command(socket),
            None => format!("numactl --cpunodebind={id} --membind={id}", id = socket.0),
        }
    });

    LaunchPlan {
        env,
        numactl_prefix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::on_machine;
    use gts_job::{BatchClass, JobSpec, NnModel};
    use gts_topo::{power8_minsky, GpuId, MachineId};

    fn alloc(gpus: &[u32]) -> Allocation {
        Allocation {
            spec: JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, gpus.len() as u32),
            gpus: on_machine(
                MachineId(0),
                &gpus.iter().map(|&g| GpuId(g)).collect::<Vec<_>>(),
            ),
            utility: 1.0,
        }
    }

    #[test]
    fn packed_job_gets_visible_devices_and_numa_binding() {
        let topo = power8_minsky();
        let plan = launch_plan(&alloc(&[2, 3]), &topo, None);
        assert_eq!(
            plan.env,
            vec![
                ("CUDA_DEVICE_ORDER".into(), "PCI_BUS_ID".into()),
                ("CUDA_VISIBLE_DEVICES".into(), "2,3".into()),
            ]
        );
        assert_eq!(
            plan.numactl_prefix.as_deref(),
            Some("numactl --cpunodebind=1 --membind=1")
        );
        assert_eq!(
            plan.command_line("caffe train --solver=solver.prototxt"),
            "CUDA_DEVICE_ORDER=PCI_BUS_ID CUDA_VISIBLE_DEVICES=2,3 \
             numactl --cpunodebind=1 --membind=1 caffe train --solver=solver.prototxt"
        );
    }

    #[test]
    fn spread_job_is_not_numa_bound() {
        let topo = power8_minsky();
        let plan = launch_plan(&alloc(&[1, 2]), &topo, None);
        assert!(plan.numactl_prefix.is_none());
        assert_eq!(plan.env[1].1, "1,2");
        assert_eq!(
            plan.command_line("caffe train"),
            "CUDA_DEVICE_ORDER=PCI_BUS_ID CUDA_VISIBLE_DEVICES=1,2 caffe train"
        );
    }

    #[test]
    fn numa_info_feeds_the_binding() {
        let topo = power8_minsky();
        let numactl_text = "\
node 0 cpus: 0 1 2 3
node 1 cpus: 4 5 6 7
node distances:
node   0   1
  0:  10  40
  1:  40  10
";
        let info = NumaInfo::parse(numactl_text).unwrap();
        let plan = launch_plan(&alloc(&[0]), &topo, Some(&info));
        assert_eq!(
            plan.numactl_prefix.as_deref(),
            Some("numactl --cpunodebind=0 --membind=0")
        );
    }

    #[test]
    #[should_panic(expected = "per machine")]
    fn multi_node_allocations_are_rejected() {
        let topo = power8_minsky();
        let a = Allocation {
            spec: JobSpec::new(0, NnModel::AlexNet, BatchClass::Tiny, 2),
            gpus: vec![
                gts_topo::GlobalGpuId {
                    machine: MachineId(0),
                    gpu: GpuId(0),
                },
                gts_topo::GlobalGpuId {
                    machine: MachineId(1),
                    gpu: GpuId(0),
                },
            ],
            utility: 1.0,
        };
        launch_plan(&a, &topo, None);
    }
}
