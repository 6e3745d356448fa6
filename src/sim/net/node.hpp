#pragma once

/// A mobile device: identity + mobility + radio + applications.

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/core/simulator.hpp"
#include "sim/mobility/mobility_model.hpp"
#include "sim/net/net_device.hpp"

namespace aedbmls::sim {

class Node;

/// Base class for protocol/application logic running on a node.
/// Applications receive every frame the node's radio decodes and may send
/// through `node().device()`.
class Application {
 public:
  virtual ~Application() = default;

  /// Called once when the application is installed.
  virtual void start() {}

  /// Called for every decoded frame (all kinds; filter in the override).
  virtual void on_receive(const Frame& frame, double rx_dbm) = 0;

 protected:
  Application(Simulator& simulator, Node& node)
      : simulator_(simulator), node_(node) {}

  [[nodiscard]] Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] Node& node() noexcept { return node_; }

 private:
  Simulator& simulator_;
  Node& node_;
};

class Node {
 public:
  Node(Simulator& simulator, NodeId id, std::unique_ptr<MobilityModel> mobility);

  /// Installs the radio (exactly once, by the network builder).
  void attach_device(std::unique_ptr<NetDevice> device);

  /// Installs an application; `start()` is invoked immediately.
  /// Returns a reference for scenario-side wiring.
  template <typename App, typename... Args>
  App& add_app(Args&&... args) {
    auto app = std::make_unique<App>(simulator_, *this, std::forward<Args>(args)...);
    App& ref = *app;
    apps_.push_back(std::move(app));
    apps_.back()->start();
    return ref;
  }

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const MobilityModel& mobility() const noexcept { return *mobility_; }
  [[nodiscard]] MobilityModel& mobility() noexcept { return *mobility_; }
  [[nodiscard]] NetDevice& device() noexcept { return *device_; }
  [[nodiscard]] const NetDevice& device() const noexcept { return *device_; }
  [[nodiscard]] Vec2 position(Time t) const { return mobility_->position(t); }

 private:
  void dispatch(const Frame& frame, double rx_dbm);

  Simulator& simulator_;
  NodeId id_;
  std::unique_ptr<MobilityModel> mobility_;
  std::unique_ptr<NetDevice> device_;
  std::vector<std::unique_ptr<Application>> apps_;
};

}  // namespace aedbmls::sim
