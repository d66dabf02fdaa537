#include "defense/topoguard_plus.hpp"

#include <memory>

#include "defense/sphinx.hpp"

namespace tmg::defense {

TopoGuardPlus install_topoguard_plus(ctrl::Controller& ctrl,
                                     TopoGuardPlusConfig config) {
  TopoGuardPlus handles;
  handles.topoguard = &install_topoguard(ctrl, config.topoguard);
  auto cmm = std::make_unique<Cmm>(ctrl, config.cmm);
  handles.cmm = cmm.get();
  ctrl.add_defense(std::move(cmm));
  auto lli = std::make_unique<Lli>(ctrl, config.lli);
  handles.lli = lli.get();
  ctrl.add_defense(std::move(lli));
  return handles;
}

TopoGuard& install_topoguard(ctrl::Controller& ctrl, TopoGuardConfig config) {
  auto tg = std::make_unique<TopoGuard>(ctrl, config);
  TopoGuard& ref = *tg;
  ctrl.add_defense(std::move(tg));
  return ref;
}

Sphinx& install_sphinx(ctrl::Controller& ctrl, SphinxConfig config) {
  auto sphinx = std::make_unique<Sphinx>(ctrl, config);
  Sphinx& ref = *sphinx;
  ctrl.add_defense(std::move(sphinx));
  ref.start();
  return ref;
}

}  // namespace tmg::defense
